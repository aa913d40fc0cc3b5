//! # spfe-mpc
//!
//! Secure-computation substrates of the SPFE reproduction:
//!
//! * [`garble`] — Yao garbled circuits \[46\], deterministic from a seed;
//! * [`yao2pc`] — the 1-round two-party `MPC(m, s)` protocol
//!   (`m × SPIR(2,1,κ) + O(κ·C_f)` communication, Table 1);
//! * [`psm`] — private simultaneous messages protocols of §3.2: the sum
//!   PSM of Example 1, the computational Yao-based PSM \[23, 46\], and the
//!   perfectly secure branching-program PSM of Ishai–Kushilevitz \[30\];
//! * [`phase`] — one-exchange phases on words each party already holds
//!   (the second half of the composite SPFE protocols);
//! * [`arith_mpc`] — the §3.3.4 light-weight protocol for arithmetic
//!   circuits over homomorphic encryption (rounds ∝ multiplicative depth).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith_mpc;
pub mod garble;
pub mod phase;
pub mod psm;
pub mod yao2pc;

pub use garble::{GarbledCircuit, GarblerSecrets, Label, LABEL_LEN};
pub use yao2pc::{YaoClientState, YaoQuery, YaoReply};
