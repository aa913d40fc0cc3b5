//! Shared conformance fixture — now a thin shim over [`spfe::harness`],
//! where the driver table lives so the `spfe-tables audit` differential
//! harness and the test suites consume the same registry.

#![allow(dead_code)] // each consuming suite uses a different subset

pub use spfe::harness::*;

/// The query label and queries a fresh session of driver `d` opens with
/// (the client rng is seeded, so every client built this way sends the
/// same bytes).
pub fn opening(d: &Driver) -> (&'static str, spfe::transport::Queries) {
    let mut client = (d.cores)(0).client();
    let label = client.exchanges()[0].query;
    let queries = client.queries(0).expect("client opens");
    (label, queries.expect("the first exchange always runs"))
}
