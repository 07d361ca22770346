//! Inputs generated from `--seed` before anything is timed: the key
//! map, the per-client operation lists, and the self-checking value
//! format every write carries.

use logbase_common::config::YCSB_MAX_KEY;
use logbase_common::Value;
use logbase_workload::zipf::{ScrambledZipfian, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Cluster members.
pub const MEMBERS: usize = 3;
/// Closed-loop client threads sharing one `Client`.
pub const CLIENTS: usize = 2;
/// Bytes per value.
pub const VALUE_BYTES: usize = 1024;
/// Longest scan.
pub const MAX_SCAN: u16 = 50;
/// Ops each client runs untimed before the measured phase.
pub const WARMUP_OPS: usize = 300;
/// Balance every account holds after the load.
pub const INITIAL_BALANCE: i64 = 1_000;
/// Zipf skew of the skewed workloads.
const THETA: f64 = 0.99;

/// Client operation kinds, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Scan,
    Txn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Put, Kind::Get, Kind::Scan, Kind::Txn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::Scan => "scan",
            Kind::Txn => "txn",
        }
    }
}

/// One workload: its data set and traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Items loaded before the run (one key each).
    pub items: u32,
    /// Zipf 0.99 over the items when true, uniform otherwise.
    pub zipf: bool,
    /// Share of put, get, scan and txn ops, in per mille.
    pub mix: [u32; 4],
}

/// The workloads. Each issues every op kind so each end-to-end metric
/// is defined on each workload; the minor kinds get a share just large
/// enough for a p99 over one run.
pub const SPECS: [Spec; 3] = [
    // Write-heavy over a hot set that fits the 3 x 16 MiB read buffers
    // (40k items x 1168 accounted bytes = 45 MiB).
    Spec {
        name: "write_hot",
        items: 40_000,
        zipf: true,
        mix: [910, 50, 20, 20],
    },
    // Read-heavy over about 4x the read-buffer budget (170k x 1168
    // accounted bytes = 189 MiB), so most gets miss and go to the DFS.
    Spec {
        name: "read_cold",
        items: 170_000,
        zipf: false,
        mix: [50, 910, 20, 20],
    },
    // Scans and read-modify-write transactions over data loaded in key
    // order.
    Spec {
        name: "scan_txn",
        items: 60_000,
        zipf: true,
        mix: [60, 60, 440, 440],
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// One client operation. Items are indexes into [`Inputs::keys`].
/// Puts touch only odd ("plain") items and transactions only even
/// ("account") items, so blind puts never disturb the balance total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put(u32),
    Get(u32),
    Scan { item: u32, limit: u16 },
    Txn { items: [u32; 3], amount: i64 },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Put(_) => Kind::Put,
            Op::Get(_) => Kind::Get,
            Op::Scan { .. } => Kind::Scan,
            Op::Txn { .. } => Kind::Txn,
        }
    }
}

/// Everything the run feeds the program.
pub struct Inputs {
    pub spec: Spec,
    /// Item -> key (distinct, scrambled over `YCSB_MAX_KEY`).
    pub keys: Vec<u64>,
    /// Item -> owning member.
    pub member: Vec<u8>,
    /// `(key, item)` in key order.
    pub sorted: Vec<(u64, u32)>,
    /// Per client: warm-up ops first, then the measured list (cycled if
    /// a client ever runs off its end).
    pub ops: Vec<Vec<Op>>,
    /// Digest of keys and ops; equal seeds give equal digests.
    pub digest: u64,
}

pub fn is_account(item: u32) -> bool {
    item & 1 == 0
}

impl Inputs {
    pub fn generate(spec: Spec, seed: u64, seconds: u64) -> Inputs {
        let n = spec.items;
        let scramble = ScrambledZipfian::new(1, YCSB_MAX_KEY, THETA);
        let stride = YCSB_MAX_KEY / MEMBERS as u64;
        // Item i lives on member i % 3, at a scrambled key inside that
        // member's range, so the hot items spread evenly over the
        // members whatever the seed.
        let member: Vec<u8> = (0..n).map(|i| (i as usize % MEMBERS) as u8).collect();
        let mut seen = HashSet::with_capacity(n as usize);
        let mut keys = Vec::with_capacity(n as usize);
        for item in 0..u64::from(n) {
            let base = u64::from(member[item as usize]) * stride;
            let mut k = base + scramble.key_of_item(item ^ seed.rotate_left(17)) % stride;
            // The scramble is a hash: probe past the rare collision so
            // every item owns a distinct key.
            while !seen.insert(k) {
                k = base + (k - base + 1) % stride;
            }
            keys.push(k);
        }
        let mut sorted: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        sorted.sort_unstable();

        // Enough ops that no client cycles at the highest rate seen
        // (7k ops/s per client) over the longest phase (2 x seconds).
        let per_client = WARMUP_OPS + seconds.max(1) as usize * 14_000;
        let half = Sampler::new(spec.zipf, n / 2);
        let all = Sampler::new(spec.zipf, n);
        let ops = (0..CLIENTS as u64)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(splitmix(seed ^ (c + 1).wrapping_mul(0x9E37)));
                (0..per_client)
                    .map(|_| next_op(&spec, &mut rng, &half, &all, &member))
                    .collect()
            })
            .collect();
        let mut inputs = Inputs {
            spec,
            keys,
            member,
            sorted,
            ops,
            digest: 0,
        };
        inputs.digest = inputs.compute_digest();
        inputs
    }

    fn compute_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = splitmix(h ^ v);
        for &k in &self.keys {
            mix(k);
        }
        for list in &self.ops {
            for op in list {
                match *op {
                    Op::Put(i) => mix(1 << 40 | u64::from(i)),
                    Op::Get(i) => mix(2 << 40 | u64::from(i)),
                    Op::Scan { item, limit } => {
                        mix(3 << 40 | u64::from(limit) << 32 | u64::from(item))
                    }
                    Op::Txn { items, amount } => {
                        mix(4 << 40 | amount as u64);
                        items.iter().for_each(|&i| mix(u64::from(i)));
                    }
                }
            }
        }
        h
    }

    /// Index in [`Inputs::sorted`] of the first key `>= key`.
    pub fn lower_bound(&self, key: u64) -> usize {
        self.sorted.partition_point(|&(k, _)| k < key)
    }

    /// Item owning `key`, if `key` was loaded.
    pub fn item_of(&self, key: u64) -> Option<u32> {
        let i = self.lower_bound(key);
        self.sorted
            .get(i)
            .filter(|&&(k, _)| k == key)
            .map(|&(_, it)| it)
    }

    /// Items in key order, per member (the load order).
    pub fn load_order(&self) -> Vec<Vec<u32>> {
        let mut per = vec![Vec::new(); MEMBERS];
        for &(_, item) in &self.sorted {
            per[self.member[item as usize] as usize].push(item);
        }
        per
    }

    /// Bytes of user data live after the load: keys plus values.
    pub fn live_bytes(&self) -> u64 {
        u64::from(self.spec.items) * (8 + VALUE_BYTES as u64)
    }
}

/// Rank sampler: Zipf 0.99 or uniform over `0..n`.
enum Sampler {
    Zipf(Zipfian),
    Uniform(u32),
}

impl Sampler {
    fn new(zipf: bool, n: u32) -> Sampler {
        if zipf {
            Sampler::Zipf(Zipfian::new(u64::from(n), THETA))
        } else {
            Sampler::Uniform(n)
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        match self {
            Sampler::Zipf(z) => z.sample(rng) as u32,
            Sampler::Uniform(n) => rng.gen_range(0..*n),
        }
    }
}

fn next_op(spec: &Spec, rng: &mut StdRng, half: &Sampler, all: &Sampler, member: &[u8]) -> Op {
    let roll = rng.gen_range(0..1000u32);
    let [put, get, scan, _] = spec.mix;
    if roll < put {
        Op::Put(2 * half.sample(rng) + 1)
    } else if roll < put + get {
        Op::Get(all.sample(rng))
    } else if roll < put + get + scan {
        Op::Scan {
            item: all.sample(rng),
            limit: rng.gen_range(1..=MAX_SCAN),
        }
    } else {
        // Three distinct accounts on one member: a transaction is
        // scoped to a single tablet server.
        let first = 2 * half.sample(rng);
        let m = member[first as usize];
        let mut items = [first; 3];
        let mut found = 1;
        while found < 3 {
            let cand = 2 * half.sample(rng);
            if member[cand as usize] == m && !items[..found].contains(&cand) {
                items[found] = cand;
                found += 1;
            }
        }
        Op::Txn {
            items,
            amount: rng.gen_range(1..=100),
        }
    }
}

pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- value format ----------------------------------------------------
//
// [0..8)    key hash
// [8..16)   write id (unique per write: load, put, or txn slot)
// [16..24)  balance (accounts; 0 on plain items)
// [24..1020) filler derived from the write id
// [1020..1024) CRC-32 of bytes [0..1020)

const CRC_AT: usize = VALUE_BYTES - 4;

fn key_hash(key: u64) -> u64 {
    splitmix(key ^ 0x5EED_F00D)
}

/// A self-checking value for `key`.
pub fn make_value(key: u64, write_id: u64, balance: i64) -> Value {
    let mut v = vec![0u8; VALUE_BYTES];
    v[0..8].copy_from_slice(&key_hash(key).to_le_bytes());
    v[8..16].copy_from_slice(&write_id.to_le_bytes());
    v[16..24].copy_from_slice(&balance.to_le_bytes());
    let mut s = write_id;
    for chunk in v[24..CRC_AT].chunks_mut(8) {
        s = splitmix(s);
        chunk.copy_from_slice(&s.to_le_bytes()[..chunk.len()]);
    }
    let crc = crc32fast::hash(&v[..CRC_AT]);
    v[CRC_AT..].copy_from_slice(&crc.to_le_bytes());
    Value::from(v)
}

/// What a checked value says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub write_id: u64,
    pub balance: i64,
}

/// Check `value` was written for `key` and arrived intact.
pub fn check_value(key: u64, value: &[u8]) -> Result<Stamp, String> {
    if value.len() != VALUE_BYTES {
        return Err(format!(
            "key {key}: value has {} bytes, want {VALUE_BYTES}",
            value.len()
        ));
    }
    let word = |at: usize| u64::from_le_bytes(value[at..at + 8].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(value[CRC_AT..].try_into().expect("4 bytes"));
    if crc32fast::hash(&value[..CRC_AT]) != crc {
        return Err(format!("key {key}: value CRC mismatch"));
    }
    if word(0) != key_hash(key) {
        return Err(format!("key {key}: value belongs to another key"));
    }
    Ok(Stamp {
        write_id: word(8),
        balance: word(16) as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbase_cluster::Router;
    use logbase_workload::encode_key;

    #[test]
    fn same_seed_same_inputs() {
        let s = spec("scan_txn").unwrap();
        let a = Inputs::generate(s, 7, 1);
        let b = Inputs::generate(s, 7, 1);
        let c = Inputs::generate(s, 8, 1);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn ops_respect_item_roles() {
        let s = spec("scan_txn").unwrap();
        let inp = Inputs::generate(s, 3, 1);
        for op in inp.ops.iter().flatten() {
            match *op {
                Op::Put(i) => assert!(!is_account(i) && i < s.items),
                Op::Txn { items, .. } => {
                    assert!(items.iter().all(|&i| is_account(i)));
                    let m = inp.member[items[0] as usize];
                    assert!(items.iter().all(|&i| inp.member[i as usize] == m));
                    assert!(items[0] != items[1] && items[1] != items[2] && items[0] != items[2]);
                }
                Op::Scan { limit, .. } => assert!((1..=MAX_SCAN).contains(&limit)),
                Op::Get(i) => assert!(i < s.items),
            }
        }
        let distinct: HashSet<u64> = inp.keys.iter().copied().collect();
        assert_eq!(distinct.len(), inp.keys.len());
        let router = Router::new(MEMBERS as u32, YCSB_MAX_KEY);
        for (item, &key) in inp.keys.iter().enumerate() {
            assert_eq!(router.route(&encode_key(key)), u32::from(inp.member[item]));
        }
    }

    #[test]
    fn value_round_trip_and_damage() {
        let v = make_value(42, 9, -5);
        assert_eq!(
            check_value(42, &v),
            Ok(Stamp {
                write_id: 9,
                balance: -5
            })
        );
        assert!(check_value(43, &v).is_err());
        let mut bad = v.to_vec();
        bad[500] ^= 1;
        assert!(check_value(42, &bad).is_err());
        assert!(check_value(42, &bad[..100]).is_err());
    }
}
