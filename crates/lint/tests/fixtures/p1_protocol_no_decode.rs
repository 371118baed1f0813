// P1 fixture — protocol side with neither a `Deserialize` derive nor hand
// decode arms: every variant trips the decode leg of P1.

use serde::Serialize;

#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Message {
    Ping { nonce: u64 },
    Pong { nonce: u64 },
    Bye,
}
