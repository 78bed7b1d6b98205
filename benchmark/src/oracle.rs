//! Reference answers that need no synthesis engine.
//!
//! A breadth-first search from the identity over all 8! = 40,320
//! three-line reversible functions, one MCT gate per step, gives every
//! function's minimal gate count. Its histogram must equal the optimal-size
//! table of Shende, Prasad, Markov & Hayes ("Synthesis of Reversible Logic
//! Circuits"), whose NOT/CNOT/Toffoli gate set is exactly the 12-gate MCT
//! library on three lines. The benchmark checks that table before any
//! workload runs, so a wrong oracle can never bless a wrong engine.

use qsyn::revlogic::{Circuit, GateLibrary, Spec};

/// Functions of optimal size 0, 1, …, 8 (Shende et al., Table II).
pub const SHENDE_HISTOGRAM: [u32; 9] = [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577];

/// Minimal depths of the Table 1 rows under free output permutation, as
/// pinned from the BDD engine and agreeing with `BENCH_pr8.json` where the
/// two overlap.
pub const TABLE1_DEPTHS: [(&str, u32); 16] = [
    ("mod5mils", 5),
    ("graycode6", 5),
    ("3_17", 5),
    ("hwb4", 9),
    ("rd32-v0", 4),
    ("rd32-v1", 4),
    ("mod5-v0", 5),
    ("mod5-v1", 5),
    ("decod24-v0", 6),
    ("decod24-v1", 5),
    ("decod24-v2", 5),
    ("decod24-v3", 6),
    ("alu-v0", 5),
    ("alu-v1", 6),
    ("alu-v2", 5),
    ("alu-v3", 7),
];

/// The pinned Table 1 depth of `name`.
pub fn pinned_depth(name: &str) -> Option<u32> {
    TABLE1_DEPTHS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, d)| d)
}

/// A three-line function as its truth table: `map[x]` is the output word
/// for input word `x` (bit `l` is line `l`).
pub type Map3 = [u32; 8];

/// The six output relabelings of three lines: bit `j` moves to `sigma[j]`.
pub const RELABELINGS: [[u32; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

const FACTORIAL: [usize; 8] = [1, 1, 2, 6, 24, 120, 720, 5040];

/// Number of three-line reversible functions.
pub const FUNCTIONS: usize = 40_320;

/// Lehmer rank of a permutation of `0..8`, in `0..8!`.
pub fn rank(map: &Map3) -> usize {
    let mut r = 0;
    for i in 0..8 {
        let smaller_after = map[i + 1..].iter().filter(|&&v| v < map[i]).count();
        r += smaller_after * FACTORIAL[7 - i];
    }
    r
}

/// Inverse of [`rank`].
pub fn unrank(mut r: usize) -> Map3 {
    let mut pool: Vec<u32> = (0..8).collect();
    let mut map = [0u32; 8];
    for (i, slot) in map.iter_mut().enumerate() {
        let f = FACTORIAL[7 - i];
        *slot = pool.remove(r / f);
        r %= f;
    }
    map
}

/// `map` with its output bits relabeled by `sigma`.
pub fn relabel(map: &Map3, sigma: &[u32; 3]) -> Map3 {
    map.map(|v| (0..3).fold(0, |acc, j| acc | (((v >> j) & 1) << sigma[j])))
}

/// The completely specified [`Spec`] of a three-line function.
pub fn spec_of(map: &Map3) -> Spec {
    Spec::from_permutation(&qsyn::revlogic::Permutation::from_map(3, map.to_vec()))
}

/// BFS distances over all three-line functions; see the module docs.
pub struct Oracle {
    /// Minimal MCT gate count, indexed by [`rank`].
    dist: Vec<u8>,
}

impl Oracle {
    /// Runs the BFS (a few tens of milliseconds).
    pub fn build() -> Oracle {
        let gates = GateLibrary::mct().enumerate(3);
        assert_eq!(gates.len(), 12, "three-line MCT library has 12 gates");
        let mut dist = vec![u8::MAX; FUNCTIONS];
        let identity: Map3 = [0, 1, 2, 3, 4, 5, 6, 7];
        dist[rank(&identity)] = 0;
        let mut frontier = vec![identity];
        let mut depth = 0u8;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for map in &frontier {
                for g in &gates {
                    // Appending gate g after the circuit for `map`.
                    let succ = map.map(|v| g.apply(v));
                    let r = rank(&succ);
                    if dist[r] == u8::MAX {
                        dist[r] = depth;
                        next.push(succ);
                    }
                }
            }
            frontier = next;
        }
        Oracle { dist }
    }

    /// Number of functions at each minimal gate count.
    pub fn histogram(&self) -> Vec<u32> {
        let max = self.dist.iter().copied().max().unwrap_or(0) as usize;
        let mut h = vec![0u32; max + 1];
        for &d in &self.dist {
            h[d as usize] += 1;
        }
        h
    }

    /// `Err` unless the BFS reproduces [`SHENDE_HISTOGRAM`] exactly.
    pub fn check_histogram(&self) -> Result<(), String> {
        let h = self.histogram();
        if h == SHENDE_HISTOGRAM {
            Ok(())
        } else {
            Err(format!(
                "BFS histogram {h:?} differs from Shende et al. {SHENDE_HISTOGRAM:?}"
            ))
        }
    }

    /// Minimal gate count of `map` with its output labeling fixed.
    pub fn distance(&self, map: &Map3) -> u32 {
        u32::from(self.dist[rank(map)])
    }

    /// Minimal gate count over the six output relabelings of `map`: the
    /// depth an output-permutation search must report.
    pub fn class_min(&self, map: &Map3) -> u32 {
        RELABELINGS
            .iter()
            .map(|s| self.distance(&relabel(map, s)))
            .min()
            .expect("six relabelings")
    }
}

/// Identifier of `map`'s output-relabeling class: the smallest [`rank`]
/// among its relabelings.
pub fn class_id(map: &Map3) -> usize {
    RELABELINGS
        .iter()
        .map(|s| rank(&relabel(map, s)))
        .min()
        .expect("six relabelings")
}

/// Representatives of every output-relabeling class of three-line
/// functions, in rank order.
pub fn class_representatives() -> Vec<Map3> {
    (0..FUNCTIONS)
        .map(unrank)
        .filter(|m| class_id(m) == rank(m))
        .collect()
}

/// `true` when wiring `circuit` output `permutation[j]` to spec line `j`
/// meets every cared bit of `spec`, and the circuit has `depth` gates.
pub fn realizes(spec: &Spec, circuit: &Circuit, permutation: &[u32], depth: u32) -> bool {
    circuit.lines() == spec.lines()
        && circuit.len() == depth as usize
        && permutation.len() == spec.lines() as usize
        && spec.rows().iter().enumerate().all(|(x, row)| {
            let out = circuit.simulate(x as u32);
            permutation.iter().enumerate().all(|(j, &p)| {
                row.care & (1 << j) == 0 || ((out >> p) & 1) == ((row.value >> j) & 1)
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_reproduces_the_published_histogram() {
        let oracle = Oracle::build();
        assert_eq!(oracle.check_histogram(), Ok(()));
        assert_eq!(oracle.histogram().iter().sum::<u32>() as usize, FUNCTIONS);
    }

    #[test]
    fn rank_and_unrank_are_inverse() {
        for r in [0, 1, 5039, 12_345, FUNCTIONS - 1] {
            assert_eq!(rank(&unrank(r)), r);
        }
        assert_eq!(unrank(0), [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn class_min_is_relabeling_invariant_and_matches_3_17() {
        let oracle = Oracle::build();
        // 3_17: depth 6 under its own labeling, 5 with free relabeling.
        let f: Map3 = [7, 1, 4, 3, 0, 2, 6, 5];
        assert_eq!(oracle.distance(&f), 6);
        assert_eq!(oracle.class_min(&f), 5);
        for s in &RELABELINGS {
            let g = relabel(&f, s);
            assert_eq!(oracle.class_min(&g), 5);
            assert_eq!(class_id(&g), class_id(&f));
        }
    }

    #[test]
    fn realizes_rejects_a_wrong_permutation() {
        use qsyn::revlogic::Gate;
        // A single CNOT (control 0, target 1) realizes its own function
        // under the identity labeling only.
        let c = Circuit::from_gates(3, [Gate::cnot(0, 1)]);
        let map: Map3 = std::array::from_fn(|x| c.simulate(x as u32));
        let spec = spec_of(&map);
        assert!(realizes(&spec, &c, &[0, 1, 2], 1));
        assert!(!realizes(&spec, &c, &[1, 0, 2], 1));
        assert!(!realizes(&spec, &c, &[0, 1, 2], 2));
    }
}
