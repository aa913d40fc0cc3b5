//! The shared conformance harness: every protocol in the workspace as a
//! uniform driver table, with secret-input variants for the leakage audit.
//!
//! Both the test suites (`tests/adversarial.rs`, `tests/trace_conformance.rs`,
//! `tests/mem_profile.rs`, `tests/leakage_audit.rs`) and the `spfe-tables
//! audit` differential harness consume this table, so the set of audited
//! protocols and the set of conformance-tested protocols can never drift
//! apart.
//!
//! One (small) Schnorr group and Paillier keypair are generated once per
//! process; key generation dominates setup time, the protocols themselves
//! run on 16–27-item databases. Each driver owns its rng seed, so a run is
//! a pure function of `(channel fault plan, secret variant)` — the
//! reproducibility property every suite leans on.
//!
//! **Secret variants.** Each driver runs under [`NUM_VARIANTS`] systematic
//! variations of its *secret* inputs — the client's indices, the database
//! contents, the weight/coefficient vector, the selected statistic — while
//! every *public* parameter (database size, sample size `m`, field, keys,
//! circuit shape, rng seeds) stays fixed. Variant 0 is the canonical run
//! the conformance suites use. The differential leakage audit (DESIGN.md
//! §14) asserts that every party-view fingerprint is bit-identical across
//! all variants: the wire shape must not depend on what the protocol is
//! hiding.

use spfe_circuits::builders::{bits_for, sum_circuit};
use spfe_core::database::reference;
use spfe_core::input_select::{Select1Client, Select1Server, Select1Then};
use spfe_core::multiserver::{MsClient, MsFunction, MsServer, MultiServerParams};
use spfe_core::psm_spfe::{YaoPsmClient, YaoPsmServer};
use spfe_core::stats::{
    FrequencyClient, FrequencyServer, WeightedSumClient, WeightedSumServer, FREQUENCY,
};
use spfe_core::universal::universal_parties;
use spfe_core::Statistic;
use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe_math::Fp64;
use spfe_mpc::yao2pc::{YaoClient, YaoServer};
use spfe_pir::batched::{BatchedClient, BatchedServer};
use spfe_pir::hom_pir::{HomPirClient, HomPirServer};
use spfe_pir::poly_it::{PolyItClient, PolyItParams, PolyItServer};
use spfe_pir::recursive::{RecursiveClient, RecursiveServer};
use spfe_pir::spir::{SpirClient, SpirParams, SpirServer};
use spfe_pir::xor2::{Xor2Client, Xor2Server};
use spfe_transport::{
    pump_parallel, Channel, ClientRounds, FaultPlan, FaultyChannel, ProtocolError, RoundServer,
    ServerRounds,
};
use std::sync::OnceLock;

/// How many secret-input variants every driver supports (variant 0 is the
/// canonical conformance run).
pub const NUM_VARIANTS: usize = 3;

/// The process-wide crypto fixture shared by every driver.
pub struct Fixture {
    /// A small Schnorr group (96-bit prime) for the SPIR/OT substrates.
    pub group: SchnorrGroup,
    /// Paillier public key (160-bit modulus).
    pub pk: PaillierPk,
    /// Paillier secret key.
    pub sk: PaillierSk,
}

/// The lazily generated [`Fixture`] (one keygen per process).
pub fn fx() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = ChaChaRng::from_u64_seed(0xADE5);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        Fixture { group, pk, sk }
    })
}

/// The canonical 16-item database (variant 0 of [`db16_v`]).
pub fn db16() -> Vec<u64> {
    db16_v(0)
}

/// A 16-item database whose *contents* (not size) vary with the secret
/// variant `v`.
pub fn db16_v(v: usize) -> Vec<u64> {
    assert!(v < NUM_VARIANTS);
    (0..16u64)
        .map(|i| (i * 7 + 3 + 11 * v as u64) % 50)
        .collect()
}

/// A 27-item database whose contents vary with the secret variant `v`.
pub fn db27_v(v: usize) -> Vec<u64> {
    assert!(v < NUM_VARIANTS);
    (0..27u64)
        .map(|i| (i * 5 + 2 + 7 * v as u64) % 40)
        .collect()
}

/// A 16-record byte database whose contents vary with the secret variant.
pub fn xor_db_v(v: usize) -> Vec<Vec<u8>> {
    assert!(v < NUM_VARIANTS);
    let salt = (v as u8) * 13;
    (0..16u8)
        .map(|i| {
            (0..4u8)
                .map(|j| {
                    i.wrapping_mul(31)
                        .wrapping_add(j * 7 + 1)
                        .wrapping_add(salt)
                })
                .collect()
        })
        .collect()
}

/// The shared arithmetic field (public parameter, never varied; the
/// prime search runs once per process).
pub fn field() -> Fp64 {
    static FIELD: OnceLock<Fp64> = OnceLock::new();
    *FIELD.get_or_init(|| Fp64::at_least(1_000))
}

/// Per-variant client index into a 16-item database (single-index
/// protocols).
fn idx16(v: usize, choices: [usize; NUM_VARIANTS]) -> usize {
    assert!(v < NUM_VARIANTS);
    choices[v]
}

// ---------------------------------------------------------------------------
// The driver table: every protocol in the workspace as a client plus its
// server cores, each reduced to a `u64` digest so one matrix covers
// them all. One constructor per driver builds both halves; the in-memory
// runs pump them, the networked client and server host them.
// ---------------------------------------------------------------------------

/// A canonical (variant-0) driver entry point.
pub type DriverFn = Box<dyn Fn(&mut dyn Channel) -> Result<u64, ProtocolError> + Send + Sync>;

/// A driver entry point under secret variant `v < NUM_VARIANTS`.
pub type VariantFn =
    Box<dyn Fn(&mut dyn Channel, usize) -> Result<u64, ProtocolError> + Send + Sync>;

/// A built server core: each one is an independent party, so the
/// in-memory runs may evaluate them side by side.
pub type ServerCore = RoundServer<Box<dyn ServerRounds + Send>>;

/// One driver's client and server cores for one secret variant, each
/// half built only when asked for: a networked party builds only its own.
pub struct Cores {
    client: Box<dyn FnOnce() -> Box<dyn ClientRounds>>,
    servers: Box<dyn FnOnce() -> Vec<ServerCore>>,
}

/// Builds a driver's [`Cores`] under secret variant `v`.
pub type CoresFn = fn(usize) -> Cores;

/// The expected digest of a driver under secret variant `v`.
pub type ExpectFn = fn(usize) -> u64;

/// One row of the conformance/audit driver table.
pub struct Driver {
    /// Stable driver name (doubles as the audit-report id).
    pub name: &'static str,
    /// Number of servers the protocol runs against.
    pub servers: usize,
    /// Expected digest of the canonical (variant-0) run.
    pub expect: u64,
    /// The canonical run (variant 0), pumped in memory.
    pub run: DriverFn,
    /// The run under a chosen secret variant, pumped in memory.
    pub run_variant: VariantFn,
    /// Expected digest per secret variant.
    pub expect_variant: ExpectFn,
    /// The constructor behind every run of the driver: in memory, and on
    /// both ends of a TCP session.
    pub cores: CoresFn,
}

impl Cores {
    /// A client against one server core per item `servers` yields.
    fn new<C, I>(
        client: impl FnOnce() -> C + 'static,
        servers: impl FnOnce() -> I + 'static,
    ) -> Cores
    where
        C: ClientRounds + 'static,
        I: IntoIterator,
        I::Item: ServerRounds + Send + 'static,
    {
        Cores {
            client: Box::new(|| Box::new(client())),
            servers: Box::new(|| {
                let boxed = |s| RoundServer::new(Box::new(s) as Box<dyn ServerRounds + Send>);
                servers().into_iter().map(boxed).collect()
            }),
        }
    }

    /// Builds the client half only.
    pub fn client(self) -> Box<dyn ClientRounds> {
        (self.client)()
    }

    /// Builds the server halves only.
    pub fn servers(self) -> Vec<ServerCore> {
        (self.servers)()
    }

    /// Builds both halves.
    pub fn both(self) -> (Box<dyn ClientRounds>, Vec<ServerCore>) {
        ((self.client)(), (self.servers)())
    }
}

/// The client's rng: the driver's own seed.
fn client_rng(seed: u64) -> ChaChaRng {
    ChaChaRng::from_u64_seed(seed)
}

/// A server-side rng stream derived from the driver's seed.
fn server_rng(seed: u64, stream: Stream) -> ChaChaRng {
    ChaChaRng::from_u64_seed(seed << 8 | stream as u64)
}

/// The server's pad stream for the driver seeded `seed`.
fn pads(seed: u64) -> ChaChaRng {
    server_rng(seed, Stream::Pads)
}

/// The independent randomness streams a server draws from.
#[derive(Clone, Copy)]
enum Stream {
    /// SPIR pads, garbling seeds, masks and blinds.
    Pads = 1,
    /// select1's additive shares `a_j`.
    Shares = 2,
}

/// xor2 variant `v`: two-server XOR PIR; the record index is the secret.
fn xor2_cores(v: usize) -> Cores {
    Cores::new(
        move || Xor2Client::new(16, idx16(v, [5, 3, 12]), client_rng(0xA0)),
        move || (0..2).map(move |_| Xor2Server::new(xor_db_v(v))),
    )
}

fn expect_xor2(v: usize) -> u64 {
    xor_db_v(v)[idx16(v, [5, 3, 12])]
        .iter()
        .map(|&b| b as u64)
        .sum()
}

/// hom_pir variant `v`: √n homomorphic PIR; index and db are the secrets.
fn hom_pir_cores(v: usize) -> Cores {
    let (pk, sk) = (&fx().pk, &fx().sk);
    Cores::new(
        move || HomPirClient::new(pk, sk, 16, idx16(v, [9, 0, 15]), client_rng(0xA1)),
        move || [HomPirServer::new(pk, db16_v(v))],
    )
}

fn expect_hom_pir(v: usize) -> u64 {
    db16_v(v)[idx16(v, [9, 0, 15])]
}

/// recursive variant `v`: depth-2 recursive PIR on the 27-item db.
fn recursive_cores(v: usize) -> Cores {
    let (pk, sk) = (&fx().pk, &fx().sk);
    Cores::new(
        move || RecursiveClient::new(pk, sk, 27, [13, 1, 26][v], client_rng(0xA2)),
        move || [RecursiveServer::new(pk, db27_v(v))],
    )
}

fn expect_recursive(v: usize) -> u64 {
    db27_v(v)[[13, 1, 26][v]]
}

/// spir variant `v`: single-server SPIR; index and db are the secrets.
fn spir_cores(v: usize) -> Cores {
    let (pk, sk, params) = (&fx().pk, &fx().sk, SpirParams::new(fx().group.clone(), 16));
    let p = params.clone();
    Cores::new(
        move || SpirClient::new(p, pk, sk, idx16(v, [7, 2, 11]), client_rng(0xA3)),
        move || [SpirServer::new(params, pk, db16_v(v), pads(0xA3))],
    )
}

fn expect_spir(v: usize) -> u64 {
    db16_v(v)[idx16(v, [7, 2, 11])]
}

const BATCHED_INDICES: [[usize; 4]; NUM_VARIANTS] = [[1, 5, 9, 14], [0, 2, 3, 15], [4, 7, 8, 12]];

/// batched variant `v`: cuckoo-batched SPIR; the index *set* is the secret.
fn batched_cores(v: usize) -> Cores {
    let (g, pk, sk) = (&fx().group, &fx().pk, &fx().sk);
    let indices = &BATCHED_INDICES[v];
    Cores::new(
        move || BatchedClient::new(g.clone(), pk, sk, 16, 1, indices, client_rng(0xA4)),
        move || {
            let words: Vec<_> = db16_v(v).into_iter().map(|x| vec![x]).collect();
            [BatchedServer::new(g.clone(), pk, words, pads(0xA4))]
        },
    )
}

fn expect_batched(v: usize) -> u64 {
    let db = db16_v(v);
    BATCHED_INDICES[v].iter().map(|&i| db[i]).sum()
}

/// poly_it variant `v`: polynomial-interpolation PIR.
fn poly_it_cores(v: usize) -> Cores {
    let (params, k) = (poly_params(), poly_params().num_servers());
    Cores::new(
        move || PolyItClient::new(params, idx16(v, [5, 8, 2]), client_rng(0xA5)),
        move || (0..k).map(move |h| PolyItServer::new(h, params, db16_v(v), None)),
    )
}

fn expect_poly_it(v: usize) -> u64 {
    db16_v(v)[idx16(v, [5, 8, 2])]
}

/// The shared poly_it parameters (public).
pub fn poly_params() -> PolyItParams {
    PolyItParams::new(16, 1, field())
}

const MS_INDICES: [[usize; 2]; NUM_VARIANTS] = [[3, 10], [0, 15], [6, 7]];

/// multiserver variant `v`: Theorem 2 multi-server SPFE, f = sum.
fn multiserver_cores(v: usize) -> Cores {
    let (params, k) = (ms_params(), ms_params().num_servers());
    let p = params.clone();
    Cores::new(
        move || MsClient::new(p, &MS_INDICES[v], client_rng(0xA6)),
        move || (0..k).map(move |h| MsServer::new(h, params.clone(), db16_v(v), None)),
    )
}

fn expect_multiserver(v: usize) -> u64 {
    let db = db16_v(v);
    (db[MS_INDICES[v][0]] + db[MS_INDICES[v][1]]) % field().modulus()
}

/// The shared multiserver parameters (public).
pub fn ms_params() -> MultiServerParams {
    MultiServerParams::new(16, 1, field(), MsFunction::Sum { m: 2 })
}

type Sel1Client = Select1Client<'static, PaillierPk, PaillierSk, ChaChaRng>;
type Sel1Server = Select1Server<'static, PaillierPk, ChaChaRng>;

/// The client half of select1 over the 16-item db at driver `seed`.
fn select1_client(seed: u64, indices: &[usize]) -> Sel1Client {
    let (f, rng) = (fx(), client_rng(seed));
    Select1Client::new(&f.group, &f.pk, &f.sk, 16, indices, field(), rng)
}

/// The server half of select1 for `m`-item selections from the variant-`v`
/// db, with its pads and shares drawn from its own streams of `seed`.
fn select1_server(seed: u64, v: usize, m: usize) -> Sel1Server {
    let (f, shares) = (fx(), server_rng(seed, Stream::Shares));
    Select1Server::new(&f.group, &f.pk, db16_v(v), field(), m, pads(seed), shares)
}

const SELECT1_INDICES: [[usize; 2]; NUM_VARIANTS] = [[2, 7], [1, 14], [0, 9]];

/// input_select variant `v`: §3.3.1 input selection into shares; the
/// client's digest is the sum of its own shares.
fn select1_cores(v: usize) -> Cores {
    Cores::new(
        move || select1_client(0xA7, &SELECT1_INDICES[v]),
        move || [select1_server(0xA7, v, 2)],
    )
}

/// `Σ (x_{i_j} − a_j) mod p`, replaying the server's share stream.
fn expect_select1(v: usize) -> u64 {
    let (db, f) = (db16_v(v), field());
    let mut shares = server_rng(0xA7, Stream::Shares);
    SELECT1_INDICES[v]
        .iter()
        .fold(0, |acc, &i| f.add(acc, f.sub(db[i], f.random(&mut shares))))
}

const PSM_INDICES: [[usize; 2]; NUM_VARIANTS] = [[2, 11], [5, 6], [0, 13]];

/// psm_spfe variant `v`: PSM-based SPFE over the 2-input sum circuit.
fn psm_cores(v: usize) -> Cores {
    let (g, pk, sk, circuit) = (&fx().group, &fx().pk, &fx().sk, sum_circuit(2, 8));
    let (c, rng) = (circuit.clone(), client_rng(0xA8));
    Cores::new(
        move || YaoPsmClient::new(g, pk, sk, 16, &PSM_INDICES[v], c, 8, rng),
        move || [YaoPsmServer::new(g, pk, db16_v(v), circuit, 8, pads(0xA8))],
    )
}

fn expect_psm(v: usize) -> u64 {
    let db = db16_v(v);
    PSM_INDICES[v].iter().map(|&i| db[i]).sum()
}

const TWO_PHASE_INDICES: [[usize; 3]; NUM_VARIANTS] = [[1, 6, 12], [0, 3, 5], [2, 9, 15]];

/// two_phase variant `v`: select1 + Yao evaluation of the sum statistic.
fn two_phase_cores(v: usize) -> Cores {
    let (g, p) = (&fx().group, field().modulus());
    let (circuit, w) = (Statistic::Sum.share_circuit(3, p), bits_for(p - 1));
    let client = YaoClient::new("yao-phase", g.clone(), circuit.clone(), w);
    let server = YaoServer::new("yao-phase", g.clone(), circuit, w);
    Cores::new(
        move || Select1Then::new(select1_client(0xA9, &TWO_PHASE_INDICES[v]), client),
        move || [Select1Then::new(select1_server(0xA9, v, 3), server)],
    )
}

fn expect_two_phase(v: usize) -> u64 {
    reference::sum(&db16_v(v), &TWO_PHASE_INDICES[v])
}

const UNIVERSAL_INDICES: [[usize; 2]; NUM_VARIANTS] = [[0, 4], [3, 12], [5, 9]];
/// Which entry of the (public) statistic menu the client secretly selects.
const UNIVERSAL_SELECTION: [usize; NUM_VARIANTS] = [0, 1, 0];

fn universal_menu() -> [Statistic; 2] {
    [Statistic::Sum, Statistic::Frequency { keyword: 9 }]
}

/// universal variant `v`: the function-hiding phase — indices *and* the
/// selected menu entry are secrets.
fn universal_cores(v: usize) -> Cores {
    let (p, choice) = (field().modulus(), UNIVERSAL_SELECTION[v]);
    let (client, server) = universal_parties(&fx().group, &universal_menu(), choice, 2, p);
    Cores::new(
        move || Select1Then::new(select1_client(0xAA, &UNIVERSAL_INDICES[v]), client),
        move || [Select1Then::new(select1_server(0xAA, v, 2), server)],
    )
}

fn expect_universal(v: usize) -> u64 {
    let db = db16_v(v);
    let indices = UNIVERSAL_INDICES[v];
    match universal_menu()[UNIVERSAL_SELECTION[v]] {
        Statistic::Sum => reference::sum(&db, &indices),
        Statistic::Frequency { keyword } => reference::frequency(&db, &indices, keyword),
        _ => unreachable!("menu holds only sum and frequency"),
    }
}

const WS_INDICES: [[usize; 3]; NUM_VARIANTS] = [[1, 4, 9], [0, 2, 3], [5, 10, 15]];
const WS_WEIGHTS: [[u64; 3]; NUM_VARIANTS] = [[2, 3, 1], [1, 1, 4], [3, 2, 2]];

/// weighted_sum variant `v`: §4 weighted sum — indices *and* the weight
/// vector are secrets.
fn weighted_sum_cores(v: usize) -> Cores {
    let (g, pk, sk) = (&fx().group, &fx().pk, &fx().sk);
    let (indices, weights, rng) = (&WS_INDICES[v], &WS_WEIGHTS[v], client_rng(0xAB));
    Cores::new(
        move || WeightedSumClient::new(g.clone(), pk, sk, 16, indices, weights, field(), rng),
        move || {
            [WeightedSumServer::new(
                g.clone(),
                pk,
                db16_v(v),
                field(),
                3,
                pads(0xAB),
            )]
        },
    )
}

fn expect_weighted_sum(v: usize) -> u64 {
    reference::weighted_sum(&db16_v(v), &WS_INDICES[v], &WS_WEIGHTS[v])
}

const FREQ_INDICES: [[usize; 3]; NUM_VARIANTS] = [[0, 5, 10], [1, 2, 3], [4, 8, 12]];
/// Which database slot's value the client secretly counts.
const FREQ_KEYWORD_SLOT: [usize; NUM_VARIANTS] = [5, 2, 9];

/// frequency variant `v`: §4 frequency counting — indices *and* the
/// keyword are secrets.
fn frequency_cores(v: usize) -> Cores {
    let (pk, sk, keyword) = (&fx().pk, &fx().sk, db16_v(v)[FREQ_KEYWORD_SLOT[v]]);
    let counter = FrequencyClient::new(FREQUENCY, pk, sk, field(), vec![keyword; 3]);
    let blinder = FrequencyServer::new(FREQUENCY, pk, field());
    Cores::new(
        move || Select1Then::new(select1_client(0xAC, &FREQ_INDICES[v]), counter),
        move || [Select1Then::new(select1_server(0xAC, v, 3), blinder)],
    )
}

fn expect_frequency(v: usize) -> u64 {
    let db = db16_v(v);
    reference::frequency(&db, &FREQ_INDICES[v], db[FREQ_KEYWORD_SLOT[v]])
}

/// Pumps the cores `cores(v)` over `t`.
fn pump_cores(t: &mut dyn Channel, cores: CoresFn, v: usize) -> Result<u64, ProtocolError> {
    let (mut client, mut servers) = cores(v).both();
    pump_parallel(t, client.as_mut(), &mut servers)
}

/// The table's rows: name, server count, constructor, expected digests.
const TABLE: [(&str, usize, CoresFn, ExpectFn); 13] = [
    ("xor2", 2, xor2_cores, expect_xor2),
    ("hom_pir", 1, hom_pir_cores, expect_hom_pir),
    ("recursive", 1, recursive_cores, expect_recursive),
    ("spir", 1, spir_cores, expect_spir),
    ("batched", 1, batched_cores, expect_batched),
    ("poly_it", 5, poly_it_cores, expect_poly_it),
    ("multiserver", 5, multiserver_cores, expect_multiserver),
    ("input_select", 1, select1_cores, expect_select1),
    ("psm_spfe", 1, psm_cores, expect_psm),
    ("two_phase", 1, two_phase_cores, expect_two_phase),
    ("universal", 1, universal_cores, expect_universal),
    ("weighted_sum", 1, weighted_sum_cores, expect_weighted_sum),
    ("frequency", 1, frequency_cores, expect_frequency),
];

fn row((name, servers, cores, expect_variant): (&'static str, usize, CoresFn, ExpectFn)) -> Driver {
    Driver {
        name,
        servers,
        expect: expect_variant(0),
        run: Box::new(move |t| pump_cores(t, cores, 0)),
        run_variant: Box::new(move |t, v| pump_cores(t, cores, v)),
        expect_variant,
        cores,
    }
}

/// The full driver table, in stable order.
pub fn drivers() -> Vec<Driver> {
    TABLE.into_iter().map(row).collect()
}

/// The driver named `name`, if the table has one.
pub fn driver(name: &str) -> Option<Driver> {
    TABLE.into_iter().find(|r| r.0 == name).map(row)
}

/// The constructor of the driver named `name`, if the table has one —
/// what a networked party needs to build its own half of a session.
pub fn cores(name: &str) -> Option<CoresFn> {
    TABLE.into_iter().find(|r| r.0 == name).map(|r| r.2)
}

/// Runs driver `d` (canonical variant) over a fresh [`FaultyChannel`]
/// under `plan`, tolerating up to `tolerance` healed servers.
pub fn run_under(d: &Driver, plan: FaultPlan, tolerance: usize) -> Result<u64, ProtocolError> {
    let mut ch = FaultyChannel::new(d.servers, plan, tolerance);
    (d.run)(&mut ch)
}

/// Runs the driver fault-free and returns how many messages it attempts —
/// the index space scripted plans address.
///
/// # Panics
///
/// Panics if the honest run does not produce the expected digest.
pub fn honest_messages(d: &Driver) -> u64 {
    let mut ch = FaultyChannel::new(d.servers, FaultPlan::honest(), 0);
    let got = (d.run)(&mut ch);
    assert_eq!(got, Ok(d.expect), "[{}] honest run", d.name);
    ch.messages_attempted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_server_counts_match_the_constructed_cores() {
        for d in drivers() {
            assert_eq!((d.cores)(0).servers().len(), d.servers, "[{}]", d.name);
        }
    }
}
