//! The four workloads and their seeded input generator.
//!
//! The generator is the only consumer of `--seed`. The program under test
//! sees what it emits and nothing else: the campaign spec as YAML *text*,
//! thermal loads as numbers, placement moves as `BlockLayout`s. Every
//! input is a pure function of `(seed, op index)`, so how long a run
//! measures never changes what op `i` solves.

use morestress_mesh::{BlockKind, BlockLayout};

/// One benchmark workload. Names are the contract: later performance
/// claims are made as *(end-to-end metric, workload name)*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every op pays assembly + ordering + symbolic + numeric factor on a
    /// fresh simulator: the workload where `ordering`/`supernodal`/
    /// `kernel`/DAG-parallel work dominates. Warm-path changes must not
    /// move it.
    ColdArray,
    /// One shared simulator, seeded thermal loads over one array: the
    /// campaign hot path, all cache hits. Factor/ordering changes must not
    /// move it.
    LoadSweep,
    /// A sharded simulator re-solving one-patch perturbations of a base
    /// layout: the `linalg` prepare layer used as a *write* path
    /// (incremental re-prepare, interface rebuild) beside `load_sweep`'s
    /// read path.
    PlacementLoop,
    /// Set-up is the cold local-stage build plus `.rom` save; every op is
    /// a persisted-`.rom` warm start and a small solve: the workload where
    /// `mesh`/`fem`/`core::local` and `.rom` I/O dominate and the global
    /// stage is negligible.
    ModelBuild,
}

/// Problem sizes of one workload (full scale, or the `--quick` smoke
/// scale that only proves every code path runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Unit-block mesh resolution name of the spec.
    pub resolution: &'static str,
    /// Interpolation nodes per axis.
    pub interp: usize,
    /// Real TSV blocks per side.
    pub tsv: usize,
    /// Dummy rings around the TSV core.
    pub rings: usize,
    /// Interior shard count (0 = monolithic).
    pub shards: usize,
    /// Mid-plane samples per block and axis in the op body.
    pub samples: usize,
    /// Loads listed in the generated campaign spec.
    pub campaign_loads: usize,
    /// Ops that always run, however short the window; count-type layer
    /// metrics are taken over exactly this prefix so they repeat exactly.
    pub min_ops: usize,
    /// Fresh set-ups timed per run (`setup_s` is their median).
    pub setups: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdArray,
        Workload::LoadSweep,
        Workload::PlacementLoop,
        Workload::ModelBuild,
    ];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdArray => "cold_array",
            Workload::LoadSweep => "load_sweep",
            Workload::PlacementLoop => "placement_loop",
            Workload::ModelBuild => "model_build",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Problem sizes. The shared model is the paper's TSV at 15 µm pitch,
    /// `medium` mesh, interpolation 4×4×4, direct solver, `verify:
    /// report`.
    pub fn sizes(self, quick: bool) -> Sizes {
        if quick {
            return Sizes {
                resolution: "coarse",
                interp: 3,
                tsv: if self == Workload::ModelBuild { 2 } else { 4 },
                rings: usize::from(matches!(self, Workload::ColdArray | Workload::LoadSweep)),
                shards: if self == Workload::PlacementLoop {
                    4
                } else {
                    0
                },
                samples: 4,
                campaign_loads: 2,
                min_ops: 3,
                setups: 1,
            };
        }
        let base = Sizes {
            resolution: "medium",
            interp: 4,
            tsv: 20,
            rings: 2,
            shards: 0,
            samples: 4,
            campaign_loads: 1,
            min_ops: 4,
            setups: 3,
        };
        match self {
            Workload::ColdArray => base,
            Workload::LoadSweep => Sizes {
                campaign_loads: 2,
                min_ops: 8,
                ..base
            },
            Workload::PlacementLoop => Sizes {
                tsv: 16,
                rings: 0,
                shards: 4,
                campaign_loads: 2,
                min_ops: 8,
                ..base
            },
            Workload::ModelBuild => Sizes {
                tsv: 4,
                rings: 0,
                samples: 20,
                campaign_loads: 2,
                min_ops: 16,
                setups: 5,
                ..base
            },
        }
    }
}

/// Side of the square placement patch (blocks) turned TSV → dummy.
pub const PATCH: usize = 2;

/// The thermal load every fixed-input check solves (the paper's anneal
/// cool-down).
pub const FIXED_DELTA_T: f64 = -250.0;

/// The seeded inputs of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    workload: Workload,
    seed: u64,
    sizes: Sizes,
}

/// SplitMix64 finalizer over `(seed, stream, index)`: stateless, so input
/// `i` never depends on how many inputs were drawn before it.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_LOAD: u64 = 1;
const STREAM_PATCH: u64 = 2;

impl Inputs {
    /// The inputs of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Self {
        Self {
            workload,
            seed,
            sizes: workload.sizes(quick),
        }
    }

    /// The problem sizes these inputs were generated for.
    pub fn sizes(&self) -> &Sizes {
        &self.sizes
    }

    /// Thermal load ΔT (°C) of op `i`: uniform on an eighth-degree grid
    /// over [−300, 150] with |ΔT| ≥ 5, so the linearity check never
    /// divides by a vanishing load.
    pub fn load(&self, i: usize) -> f64 {
        // 3522 admissible grid points: [−300, −5] ∪ [5, 150].
        let k = mix(self.seed, STREAM_LOAD, i as u64) % 3522;
        if k <= 2360 {
            -300.0 + k as f64 / 8.0
        } else {
            5.0 + (k - 2361) as f64 / 8.0
        }
    }

    /// Lower-left block of the `PATCH`×`PATCH` keep-out of placement move
    /// `i`, uniform over the positions that fit the base array.
    pub fn patch(&self, i: usize) -> (usize, usize) {
        let span = (self.sizes.tsv + 1 - PATCH) as u64;
        let r = mix(self.seed, STREAM_PATCH, i as u64);
        ((r % span) as usize, ((r >> 32) % span) as usize)
    }

    /// The base layout the spec's array solves: TSV core, dummy rings.
    pub fn base_layout(&self) -> BlockLayout {
        BlockLayout::uniform(self.sizes.tsv, self.sizes.tsv, BlockKind::Tsv)
            .padded(self.sizes.rings)
    }

    /// The layout op `i` solves: the base, with move `i`'s patch applied on
    /// `placement_loop`.
    pub fn layout(&self, i: usize) -> BlockLayout {
        let mut layout = self.base_layout();
        if self.workload == Workload::PlacementLoop {
            let (pi, pj) = self.patch(i);
            for dj in 0..PATCH {
                for di in 0..PATCH {
                    layout.set_kind(pi + di, pj + dj, BlockKind::Dummy);
                }
            }
        }
        layout
    }

    /// ΔT of op `i`: seeded on the load-driven workloads, the fixed anneal
    /// load on `placement_loop` (its moves vary the layout instead).
    pub fn delta_t(&self, i: usize) -> f64 {
        match self.workload {
            Workload::PlacementLoop => FIXED_DELTA_T,
            _ => self.load(i),
        }
    }

    /// The campaign spec of this run, as the YAML text a user would write.
    /// Its loads are the first `campaign_loads` of the seeded stream, so a
    /// different seed is a different document.
    pub fn spec_yaml(&self) -> String {
        let s = &self.sizes;
        let mut out = format!("name: {}-seed{}\n", self.workload.name(), self.seed);
        out.push_str("geometry:\n  height: 50\n  pitch: 15\n  diameter: 5\n  thickness: 0.5\n");
        out.push_str("loads:\n");
        for i in 0..s.campaign_loads {
            out.push_str(&format!("  - {}\n", self.load(i)));
        }
        out.push_str(&format!(
            "tsv_array:\n  - tsv_num_x: {n}\n    tsv_num_y: {n}\n    dummy_tsv_num_x: {r}\n    dummy_tsv_num_y: {r}\n",
            n = s.tsv,
            r = s.rings,
        ));
        out.push_str(&format!(
            "solver:\n  interp_num_x: {i}\n  interp_num_y: {i}\n  interp_num_z: {i}\n  resolution: {res}\n  global_solver: direct\n  shards: {shards}\n  verify: report\n  tolerance: 1e-10\n",
            i = s.interp,
            res = s.resolution,
            shards = s.shards,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patches(inputs: &Inputs) -> Vec<(usize, usize)> {
        (0..64).map(|i| inputs.patch(i)).collect()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for w in Workload::ALL {
            for quick in [false, true] {
                let a = Inputs::new(w, 7, quick);
                let b = Inputs::new(w, 7, quick);
                let c = Inputs::new(w, 8, quick);
                assert_eq!(a.spec_yaml().as_bytes(), b.spec_yaml().as_bytes());
                assert_eq!(patches(&a), patches(&b));
                assert_ne!(a.spec_yaml(), c.spec_yaml());
                if w == Workload::PlacementLoop {
                    assert_ne!(patches(&a), patches(&c));
                }
            }
        }
    }

    #[test]
    fn loads_stay_in_range_and_away_from_zero() {
        let inputs = Inputs::new(Workload::LoadSweep, 1, false);
        let loads: Vec<f64> = (0..4000).map(|i| inputs.load(i)).collect();
        assert!(loads
            .iter()
            .all(|dt| (-300.0..=150.0).contains(dt) && dt.abs() >= 5.0));
        assert!(loads.iter().any(|&dt| dt > 0.0) && loads.iter().any(|&dt| dt < 0.0));
        // Stateless: op i's load does not depend on what was drawn before.
        assert_eq!(inputs.load(17), loads[17]);
    }

    #[test]
    fn patches_fit_the_base_array_and_only_placement_moves_blocks() {
        for quick in [false, true] {
            let inputs = Inputs::new(Workload::PlacementLoop, 3, quick);
            let n = inputs.sizes().tsv;
            for i in 0..200 {
                let layout = inputs.layout(i);
                assert_eq!(layout.count(BlockKind::Dummy), PATCH * PATCH);
                assert_eq!((layout.nx(), layout.ny()), (n, n));
            }
            assert_eq!(inputs.delta_t(5), FIXED_DELTA_T);
        }
        let sweep = Inputs::new(Workload::LoadSweep, 3, false);
        assert_eq!(sweep.layout(9), sweep.base_layout());
        assert_eq!(sweep.base_layout().count(BlockKind::Tsv), 400);
        assert_eq!(sweep.base_layout().nx(), 24);
    }

    #[test]
    fn generated_spec_parses_to_the_declared_sizes() {
        for w in Workload::ALL {
            for quick in [false, true] {
                let inputs = Inputs::new(w, 11, quick);
                let spec = morestress_campaign::CampaignSpec::parse(&inputs.spec_yaml())
                    .expect("generated spec is valid");
                let s = inputs.sizes();
                assert_eq!(spec.arrays.len(), 1);
                assert_eq!(spec.arrays[0].layout(), inputs.base_layout());
                assert_eq!(spec.solver.shards, s.shards);
                assert_eq!(spec.loads.len(), s.campaign_loads);
                assert_eq!(spec.loads[0], inputs.load(0));
            }
        }
    }
}
