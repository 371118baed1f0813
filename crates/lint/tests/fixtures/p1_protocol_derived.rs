// P1 fixture — protocol side, derived both ways: `Serialize` is the encode
// leg and `Deserialize` the decode leg for every variant, so no hand arms
// are needed.

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    Ping { nonce: u64 },
    Pong { nonce: u64 },
    Bye,
}

impl Message {
    pub fn decode(text: &str) -> Result<Message, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}
