//! Golden outputs. For `converge-dense-256` and `session-lattice-1024`
//! at the default seed: the engine events of one pass over the run's
//! inputs and the FNV-1a digest of the final-positions digests of its
//! swarms or sessions, in order.

/// The seed the workload goldens below were recorded at.
pub const SEED: u64 = 1;
pub const DENSE: (u64, u64) = (1_175_808, 0x376f_623b_e4c6_cd3a);
pub const LATTICE: (u64, u64) = (36_000, 0x5196_ecc8_64d0_9801);

/// Golden outputs of `lab-full`: per experiment, the row count, row bytes
/// and FNV-1a digest of its `Profile::Full` JSONL file, plus the span name
/// the traced run files its time under. The experiments pin their own
/// seeds, so these do not depend on `--seed`.
pub const LAB: &[(&str, usize, usize, u64, &str)] = &[
    ("timelines", 5, 498, 0xca6329bc619de354, "lab.timelines"),
    (
        "safe_regions",
        5,
        859,
        0x6d9cc8c0b75d723a,
        "lab.safe_regions",
    ),
    (
        "ando_separation",
        6,
        785,
        0x678213bcdced8cb5,
        "lab.ando_separation",
    ),
    ("lemmas", 4, 194, 0x86baa0fe01e9ab39, "lab.lemmas"),
    (
        "chain_invariant",
        3,
        310,
        0xbbb0ae4276b12071,
        "lab.chain_invariant",
    ),
    (
        "separation_matrix",
        18,
        1480,
        0x45a86b2a94bcdc3f,
        "lab.separation_matrix",
    ),
    (
        "convergence_rate",
        20,
        1778,
        0x9493c708b0ae0b5e,
        "lab.convergence_rate",
    ),
    (
        "error_tolerance",
        17,
        1616,
        0x79a59936cda99cc7,
        "lab.error_tolerance",
    ),
    ("k_scaling", 8, 869, 0xc4c7a2dada1728aa, "lab.k_scaling"),
    (
        "impossibility",
        9,
        1996,
        0xfeb0ce47da179154,
        "lab.impossibility",
    ),
    ("extensions", 3, 364, 0x5a104637decb709f, "lab.extensions"),
];
