//! The §4 weighted-sum query, in process over a metered `Transcript`,
//! at the toy and the deploy key size.

use crate::measure::{self, mix};
use crate::recorder;
use crate::Session;
use spfe_core::database::reference;
use spfe_core::stats;
use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe_math::{Fp64, RandomSource};
use spfe_pir::batched::BatchLayout;
use spfe_transport::Transcript;
use std::time::Instant;

/// Records the client selects per query.
pub const M: usize = 4;

/// Key size profile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// 160-bit Paillier, 96-bit Schnorr group.
    Toy,
    /// 2048-bit Paillier, the 1536-bit RFC 3526 group.
    Deploy,
}

impl Profile {
    /// Its name in metric names and the run record.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Toy => "toy",
            Profile::Deploy => "deploy",
        }
    }

    /// The database size the workload of this profile queries.
    pub fn records(self) -> usize {
        match self {
            Profile::Toy => 65_536,
            Profile::Deploy => 256,
        }
    }
}

/// Keys of one profile, generated in-tree from fixed seeds.
pub struct Keys {
    /// The OT/SPIR group.
    pub group: SchnorrGroup,
    /// Paillier public key.
    pub pk: PaillierPk,
    /// Paillier secret key.
    pub sk: PaillierSk,
}

impl Keys {
    /// Generates the keys of `profile`. The seeds are fixed, so every run
    /// uses the same keys.
    pub fn generate(profile: Profile) -> Keys {
        match profile {
            Profile::Toy => {
                let mut rng = ChaChaRng::from_u64_seed(0x070E_5EED);
                let group = SchnorrGroup::generate(96, &mut rng);
                let (pk, sk) = Paillier::keygen(160, &mut rng);
                Keys { group, pk, sk }
            }
            Profile::Deploy => {
                let mut rng = ChaChaRng::from_u64_seed(0xDE9);
                let (pk, sk) = Paillier::keygen(2048, &mut rng);
                Keys {
                    group: SchnorrGroup::rfc3526_1536(),
                    pk,
                    sk,
                }
            }
        }
    }
}

/// One workload's fixture: keys, the server's database and the field.
pub struct Query {
    /// The keys.
    pub keys: Keys,
    /// The database (values below 1000).
    pub db: Vec<u64>,
    /// The statistic's field.
    pub field: Fp64,
    seed: u64,
}

impl Query {
    /// Builds the fixture: keys from their fixed seed, the database from
    /// the workload seed.
    pub fn setup(profile: Profile, seed: u64) -> Query {
        Query::with_keys(profile, Keys::generate(profile), seed)
    }

    /// Builds the fixture around keys already generated for `profile`.
    pub fn with_keys(profile: Profile, keys: Keys, seed: u64) -> Query {
        let mut rng = ChaChaRng::from_u64_seed(mix(seed, 0xDB));
        let db = (0..profile.records())
            .map(|_| rng.next_u64() % 1000)
            .collect();
        Query {
            keys,
            db,
            field: Fp64::at_least(1 << 20),
            seed,
        }
    }

    /// The client's secret inputs of session `i`: `M` indices in distinct
    /// column buckets of the batched layout (so cuckoo placement never
    /// evicts and every session does the same work), and weights 1..=99.
    pub fn inputs(&self, i: u64) -> (Vec<usize>, Vec<u64>) {
        let buckets = BatchLayout::new(self.db.len(), M).b;
        let mut rng = ChaChaRng::from_u64_seed(mix(self.seed, i));
        let mut indices: Vec<usize> = Vec::with_capacity(M);
        while indices.len() < M {
            let idx = (rng.next_u64() % self.db.len() as u64) as usize;
            if indices.iter().all(|&j| j % buckets != idx % buckets) {
                indices.push(idx);
            }
        }
        let weights = (0..M).map(|_| 1 + rng.next_u64() % 99).collect();
        (indices, weights)
    }

    /// Runs session `i` and checks its answer against the plaintext
    /// reference.
    pub fn session(&self, i: u64, parent: u64) -> Session {
        let (indices, weights) = self.inputs(i);
        let expect = reference::weighted_sum(&self.db, &indices, &weights) % self.field.modulus();
        let mut rng = ChaChaRng::from_u64_seed(mix(mix(self.seed, i), 0x5E55));
        let mut t = Transcript::new(1);
        let span = recorder::span("session:weighted_sum", parent);
        let start = Instant::now();
        let got = {
            let _call = recorder::span("spfe_core::stats::weighted_sum", span.id());
            stats::weighted_sum(
                &mut t,
                &self.keys.group,
                &self.keys.pk,
                &self.keys.sk,
                &self.db,
                &indices,
                &weights,
                self.field,
                &mut rng,
            )
        };
        let ms = measure::ms(start.elapsed());
        match got {
            Ok(v) => {
                let report = t.report();
                Session {
                    ms,
                    completed: true,
                    correct: v == expect,
                    up: report.client_to_server,
                    down: report.server_to_client,
                    half_rounds: u64::from(report.half_rounds),
                    messages: report.messages,
                    driver: "weighted_sum",
                }
            }
            Err(_) => Session::failed(ms, "weighted_sum"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed_and_avoid_bucket_collisions() {
        let q = Query {
            keys: Keys::generate(Profile::Toy),
            db: vec![1; 1024],
            field: Fp64::at_least(1 << 20),
            seed: 9,
        };
        let b = BatchLayout::new(1024, M).b;
        for i in 0..50 {
            let (idx, w) = q.inputs(i);
            assert_eq!(q.inputs(i), (idx.clone(), w.clone()));
            let mut buckets: Vec<usize> = idx.iter().map(|i| i % b).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert_eq!(buckets.len(), M);
            assert!(w.iter().all(|&w| (1..100).contains(&w)));
        }
    }

    #[test]
    fn toy_session_is_correct_and_repeats_its_bytes() {
        let mut q = Query::setup(Profile::Toy, 3);
        q.db.truncate(512);
        let a = q.session(0, 0);
        let b = q.session(1, 0);
        assert!(a.correct && b.correct);
        assert_eq!((a.up, a.down, a.messages), (b.up, b.down, b.messages));
    }
}
