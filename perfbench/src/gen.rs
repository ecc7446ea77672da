//! Seeded inputs the benchmark owns: the pinned Table-I subjects, the
//! `scale` networks and the `serve` request stream.
//!
//! The program under test only ever receives what these functions build.
//! Every generator that the repository also ships is pinned by its AND
//! count, so a generator change elsewhere fails set-up loudly instead of
//! silently changing the workload.

use sfq_netlist::aig::{Aig, Lit, NodeId};
use t1map::flow::FlowConfig;

/// SplitMix64: small, seedable and owned here, so the inputs do not move
/// when a workspace crate changes its random-number generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // Mixed so that seed 0 does not start SplitMix64 at state 0.
        Rng(seed ^ 0x5EED_BA5E_0F5F_C0DE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What a subject computes, for the native-arithmetic oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    /// `bits`-wide ripple adder: PIs `a` then `b`, LSB first; POs the sum
    /// bits then the carry-out.
    Adder(usize),
    /// `bits × bits` array multiplier: PIs `a` then `b`, LSB first; POs
    /// the `2·bits` product bits.
    Multiplier(usize),
    /// No arithmetic reference; checked by the evaluator alone.
    None,
}

/// A named input network with its pinned size.
#[derive(Debug, Clone)]
pub struct Subject {
    pub name: String,
    pub aig: Aig,
    pub arith: Arith,
}

/// The paper's Table-I subjects: `(registry name, width, pinned AND
/// count)`. Width 0 selects a fixed-size ISCAS generator.
pub const TABLE1: [(&str, usize, usize); 8] = [
    ("adder", 128, 1401),
    ("c7552", 0, 764),
    ("c6288", 0, 2929),
    ("sin", 16, 5484),
    ("voter", 255, 3564),
    ("square", 32, 8090),
    ("multiplier", 32, 12221),
    ("log2", 32, 1130),
];

fn arith_of(name: &str, width: usize) -> Arith {
    match name {
        "adder" => Arith::Adder(width),
        "multiplier" => Arith::Multiplier(width),
        _ => Arith::None,
    }
}

/// Builds a registry subject and checks its AND count against `pinned`.
pub fn registry_subject(name: &str, width: usize, pinned: usize) -> Result<Subject, String> {
    let aig = sfq_circuits::named::build(name, width)?;
    let label = if width == 0 {
        name.to_string()
    } else {
        format!("{name}:{width}")
    };
    if aig.and_count() != pinned {
        return Err(format!(
            "{label}: generator built {} ANDs, the benchmark pins {pinned}",
            aig.and_count()
        ));
    }
    Ok(Subject {
        name: label,
        aig,
        arith: arith_of(name, width),
    })
}

pub fn table1_subjects() -> Result<Vec<Subject>, String> {
    TABLE1
        .iter()
        .map(|&(name, width, ands)| registry_subject(name, width, ands))
        .collect()
}

/// Width of the deep ripple adder of the `scale` workload.
pub const DEEP_ADDER_BITS: usize = 2048;
/// Its pinned AND count.
pub const DEEP_ADDER_ANDS: usize = 22_521;

/// Shape of the wide random network of the `scale` workload.
pub const WIDE_PIS: usize = 256;
/// Gate-construction steps (XOR and full-adder steps add several ANDs).
pub const WIDE_STEPS: usize = 37_500;
/// Fanins are drawn from this many most recent nodes, except for the
/// long edges below; this keeps the depth moderate and the network wide.
const WIDE_WINDOW: usize = 4096;
/// Percent of fanins drawn from anywhere in the network.
const WIDE_LONG_EDGE_PERCENT: u64 = 5;
/// Outputs the dangling nodes are folded into.
const WIDE_POS: usize = 128;
/// Seed of the wide network. It is pinned like the Table-I subjects, so
/// the network, and with it the exact area and depth, is the same on every
/// benchmark seed; the benchmark seed draws the oracle's vectors.
pub const WIDE_SEED: u64 = 1;
/// Pinned AND count of the wide network built from [`WIDE_SEED`].
pub const WIDE_ANDS: usize = 100_593;

/// A seeded random network of about 100k ANDs in which every AND reaches
/// a primary output: nodes left without fanout are folded into the
/// outputs through AND/OR trees, so a sweep deletes nothing and the mapper
/// sees the whole network.
pub fn wide_random(seed: u64) -> Aig {
    let mut rng = Rng::new(seed);
    let mut g = Aig::new();
    let mut pool: Vec<Lit> = (0..WIDE_PIS).map(|_| g.add_pi()).collect();
    let pick = |rng: &mut Rng, pool: &[Lit]| -> Lit {
        let i = if rng.chance(WIDE_LONG_EDGE_PERCENT) || pool.len() <= WIDE_WINDOW {
            rng.below(pool.len())
        } else {
            pool.len() - 1 - rng.below(WIDE_WINDOW)
        };
        if rng.chance(50) {
            !pool[i]
        } else {
            pool[i]
        }
    };
    for _ in 0..WIDE_STEPS {
        let a = pick(&mut rng, &pool);
        let b = pick(&mut rng, &pool);
        let outs = match rng.below(100) {
            // Full adders give T1 detection something to find.
            0..=9 => {
                let c = pick(&mut rng, &pool);
                vec![g.xor3(a, b, c), g.maj3(a, b, c)]
            }
            10..=34 => vec![g.xor(a, b)],
            _ => vec![g.and(a, b)],
        };
        pool.extend(outs.into_iter().filter(|l| l.node() != NodeId::CONST0));
    }
    let mut buckets: Vec<Vec<Lit>> = vec![Vec::new(); WIDE_POS];
    let dangling: Vec<NodeId> = g.and_ids().filter(|&id| g.fanout_count(id) == 0).collect();
    for (k, id) in dangling.into_iter().enumerate() {
        buckets[k % WIDE_POS].push(Lit::new(id, rng.chance(50)));
    }
    for bucket in buckets.into_iter().filter(|b| !b.is_empty()) {
        let root = fold_tree(&mut g, bucket, &mut rng);
        g.add_po(root);
    }
    // A fold can collapse (x & !x); expose whatever it left unreached.
    for id in unreached(&g) {
        g.add_po(Lit::new(id, false));
    }
    g
}

fn fold_tree(g: &mut Aig, mut level: Vec<Lit>, rng: &mut Rng) -> Lit {
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(match pair {
                [a, b] if rng.chance(50) => g.and(*a, *b),
                [a, b] => g.or(*a, *b),
                [a] => *a,
                _ => unreachable!("chunks(2) yields one or two"),
            });
        }
        level = next;
    }
    level[0]
}

/// Live AND nodes from which no primary output can be reached.
pub fn unreached(g: &Aig) -> Vec<NodeId> {
    let mut live = vec![false; g.len()];
    for po in g.pos() {
        live[po.node().index()] = true;
    }
    for id in g.node_ids().collect::<Vec<_>>().into_iter().rev() {
        if live[id.index()] {
            if let Some((a, b)) = g.fanins(id) {
                live[a.node().index()] = true;
                live[b.node().index()] = true;
            }
        }
    }
    g.and_ids().filter(|id| !live[id.index()]).collect()
}

/// One `serve` request: a subject, a flow and an optional pre-opt stage.
#[derive(Debug, Clone)]
pub struct Request {
    pub subject: usize,
    pub flow: &'static str,
    pub config: FlowConfig,
}

/// Small subjects (pre-opt is offered on these) and medium ones:
/// `(registry name, width, pinned AND count)`.
pub const SERVE_SMALL: [(&str, usize, usize); 6] = [
    ("adder", 16, 169),
    ("multiplier", 6, 333),
    ("voter", 31, 369),
    ("sin", 8, 1358),
    ("log2", 10, 696),
    ("square", 8, 413),
];
pub const SERVE_MEDIUM: [(&str, usize, usize); 6] = [
    ("adder", 64, 697),
    ("multiplier", 12, 1593),
    ("c7552", 0, 764),
    ("sin", 12, 3126),
    ("square", 16, 1907),
    ("voter", 63, 813),
];

pub fn serve_subjects() -> Result<Vec<Subject>, String> {
    SERVE_SMALL
        .iter()
        .chain(SERVE_MEDIUM.iter())
        .map(|&(name, width, ands)| registry_subject(name, width, ands))
        .collect()
}

/// The distinct requests of one `serve` pass: every subject under 1φ, 4φ
/// and T1@4, plus 6φ and pre-optimized T1@4 on the small subjects.
pub fn serve_catalog() -> Vec<Request> {
    let mut out = Vec::new();
    for subject in 0..SERVE_SMALL.len() + SERVE_MEDIUM.len() {
        let small = subject < SERVE_SMALL.len();
        out.push(Request {
            subject,
            flow: "1phi",
            config: FlowConfig::single_phase(),
        });
        out.push(Request {
            subject,
            flow: "nphi 4",
            config: FlowConfig::multiphase(4),
        });
        out.push(Request {
            subject,
            flow: "t1 4",
            config: FlowConfig::t1(4),
        });
        if small {
            out.push(Request {
                subject,
                flow: "nphi 6",
                config: FlowConfig::multiphase(6),
            });
            out.push(Request {
                subject,
                flow: "t1 4 pre-opt",
                config: FlowConfig::t1(4).to_builder().standard_opt().build(),
            });
        }
    }
    out
}

/// Seeded repeats per catalog entry in each half of a `serve` stream. A
/// constructed ratio, not one measured from serve traffic: with it every
/// key is computed once, read from disk once and hit in memory about four
/// times per pass, so every tier of the engine is exercised.
pub const SERVE_REPEATS: usize = 2;

/// The request stream of `serve` pass `pass`, as indices into
/// [`serve_catalog`]. Each half (before and after the restart) holds every
/// catalog entry once plus [`SERVE_REPEATS`] times as many seeded repeats,
/// so every pass computes each key once, serves each from disk once after
/// the restart and serves the rest from memory. The seed and the pass
/// number set the order and which keys repeat; each pass draws its own
/// order so that a run's latencies pool over many batch compositions.
pub fn serve_stream(seed: u64, pass: usize, catalog_len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ ((pass as u64) << 32));
    let mut stream = Vec::with_capacity(2 * (1 + SERVE_REPEATS) * catalog_len);
    for _half in 0..2 {
        let mut half: Vec<usize> = (0..catalog_len).collect();
        half.extend((0..SERVE_REPEATS * catalog_len).map(|_| rng.below(catalog_len)));
        rng.shuffle(&mut half);
        stream.extend(half);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_network_has_no_dangling_ands() {
        for seed in [WIDE_SEED, 3] {
            let g = wide_random(seed);
            assert!(unreached(&g).is_empty(), "seed {seed}");
            assert!((92_000..=108_000).contains(&g.and_count()), "seed {seed}");
        }
        assert_eq!(wide_random(WIDE_SEED).and_count(), WIDE_ANDS);
    }

    #[test]
    fn stream_halves_cover_the_catalog() {
        let s = serve_stream(9, 0, 48);
        assert_eq!(s.len(), 288);
        for half in s.chunks(144) {
            for k in 0..48 {
                assert!(half.contains(&k));
            }
        }
        assert_eq!(s, serve_stream(9, 0, 48));
        assert_ne!(s, serve_stream(9, 1, 48));
        assert_ne!(s, serve_stream(10, 0, 48));
    }
}
