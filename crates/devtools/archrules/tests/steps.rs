//! One test per architecture rule, named after its step. Each test
//! requires the workspace to keep the rule, then runs the rule on
//! fixtures: lines copied from the commits that broke it (each commit is
//! named), the holes its shell version had, and lines it must let pass.

use std::path::Path;
use std::sync::OnceLock;

use morestress_archrules::{check, read_tree, File, Violation};

/// The workspace as the rules read it.
fn tree() -> &'static [(String, String)] {
    static TREE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    TREE.get_or_init(|| read_tree(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../..")))
}

/// Asserts that the workspace keeps `step`.
fn tree_keeps(step: &str) {
    let files: Vec<File> = tree()
        .iter()
        .map(|(path, text)| (path.as_str(), text.as_str()))
        .collect();
    assert!(
        files
            .iter()
            .any(|(path, _)| *path == "crates/core/src/global.rs"),
        "the workspace was not found"
    );
    let found = check(step, &files);
    assert!(found.is_empty(), "{step}:\n{}", list(&found));
}

fn list(found: &[Violation]) -> String {
    found.iter().map(|v| format!("  {v}\n")).collect()
}

/// Asserts that `fixture` breaks `step` at exactly the `(path, line)`s of
/// `want` (none: it keeps the step).
fn flags(step: &str, fixture: &[File], want: &[(&str, usize)]) {
    let found = check(step, fixture);
    let got: Vec<(&str, usize)> = found.iter().map(|v| (v.path.as_str(), v.line)).collect();
    assert_eq!(got, want, "{step}:\n{}", list(&found));
}

#[test]
fn one_instruction_set_ladder() {
    let step = "One instruction-set ladder";
    tree_keeps(step);
    // be025ad^ crates/linalg/src/sparse.rs:705–708, before every SIMD loop
    // entered through kernel.rs.
    let entry = "    /// The host must have AVX-512F.\n    #[cfg(target_arch = \"x86_64\")]\n    \
                 #[target_feature(enable = \"avx512f\")]\n    pub(super) unsafe fn avx512<const W: usize>(\n";
    flags(
        step,
        &[("crates/linalg/src/sparse.rs", entry)],
        &[("crates/linalg/src/sparse.rs", 3)],
    );
    flags(step, &[("crates/linalg/src/kernel.rs", entry)], &[]);
}

#[test]
fn one_advice_site() {
    let step = "One advice site";
    tree_keeps(step);
    let call =
        "extern \"C\" {\n    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;\n}\n";
    flags(
        step,
        &[("crates/core/src/global.rs", call), ("src/lib.rs", call)],
        &[
            ("crates/core/src/global.rs", 1),
            ("crates/core/src/global.rs", 2),
            ("src/lib.rs", 1),
            ("src/lib.rs", 2),
        ],
    );
    flags(step, &[("crates/linalg/src/memory.rs", call)], &[]);
}

#[test]
fn test_oracles_stay_dev_only() {
    let step = "Test oracles stay dev-only";
    tree_keeps(step);
    // Manifests: either crate as a product dependency, by key or by table.
    flags(
        step,
        &[
            (
                "crates/core/Cargo.toml",
                "[dependencies]\nmorestress-oracle.workspace = true\n",
            ),
            (
                "crates/fem/Cargo.toml",
                "[dependencies.morestress-archrules]\npath = \"../devtools/archrules\"\n",
            ),
            (
                "crates/mesh/Cargo.toml",
                "[build-dependencies]\nmorestress-archrules = { path = \"../devtools/archrules\" }\n",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", 2),
            ("crates/fem/Cargo.toml", 1),
            ("crates/mesh/Cargo.toml", 2),
        ],
    );
    flags(
        step,
        &[
            (
                "Cargo.toml",
                "[workspace.dependencies]\nmorestress-oracle = { path = \"crates/devtools/oracle\" }\n",
            ),
            (
                "crates/core/Cargo.toml",
                "[dev-dependencies]\nmorestress-oracle.workspace = true\n\
                 morestress-archrules = { path = \"../devtools/archrules\" }\n",
            ),
            (
                "crates/fem/Cargo.toml",
                "[dev-dependencies.morestress-oracle]\nworkspace = true\n",
            ),
        ],
        &[],
    );
    // Product code: 2b9d28e^ crates/linalg/src/lib.rs:133, before the
    // oracles left the product crates. A test module may name them; code
    // below one may not.
    flags(
        step,
        &[(
            "crates/linalg/src/lib.rs",
            "pub use cholesky::SparseCholesky;\n",
        )],
        &[("crates/linalg/src/lib.rs", 1)],
    );
    flags(
        step,
        &[(
            "crates/core/src/local.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use morestress_oracle::SparseCholesky;\n}\n\
             fn g() -> SparseCholesky { todo!() }\n",
        )],
        &[("crates/core/src/local.rs", 6)],
    );
}

#[test]
fn one_dense_kernel() {
    let step = "One dense kernel";
    tree_keeps(step);
    // 5e63622^ crates/linalg/src/supernodal.rs:155 and lib.rs:139, before
    // `BlockedKernel` became the one dense kernel.
    flags(
        step,
        &[
            (
                "crates/linalg/src/lib.rs",
                "pub use kernel::{BlockedKernel, DenseKernel, Isa, KernelChoice, ScalarKernel};\n",
            ),
            (
                "crates/linalg/src/supernodal.rs",
                "use crate::kernel::{DenseKernel, KernelChoice};\n",
            ),
        ],
        &[
            ("crates/linalg/src/lib.rs", 1),
            ("crates/linalg/src/supernodal.rs", 1),
        ],
    );
    flags(
        step,
        &[(
            "crates/linalg/src/kernel.rs",
            "#[cfg(test)]\nmod tests {\n    use morestress_oracle::ScalarKernel;\n}\n",
        )],
        &[],
    );
}

#[test]
fn one_front_door() {
    let step = "One front door";
    tree_keeps(step);
    // A `src/main.rs` is a binary too, in a member and in the root package;
    // the shell step saw only `src/bin/` directories below a crate and
    // `[[bin]]` tables.
    flags(
        step,
        &[
            ("crates/x/src/main.rs", "fn main() {}\n"),
            ("src/main.rs", "fn main() {}\n"),
            ("src/bin/tool.rs", "fn main() {}\n"),
            ("crates/core/src/bin/tool.rs", "fn main() {}\n"),
            (
                "crates/core/Cargo.toml",
                "[package]\nname = \"core\"\n\n[[bin]]\nname = \"tool\"\n",
            ),
        ],
        &[
            ("crates/x/src/main.rs", 1),
            ("src/main.rs", 1),
            ("src/bin/tool.rs", 1),
            ("crates/core/src/bin/tool.rs", 1),
            ("crates/core/Cargo.toml", 4),
        ],
    );
    flags(
        step,
        &[
            ("crates/campaign/src/bin/morestress.rs", "fn main() {}\n"),
            ("crates/campaign/src/main.rs", "fn main() {}\n"),
            (
                "crates/campaign/Cargo.toml",
                "[[bin]]\nname = \"morestress\"\npath = \"src/bin/morestress.rs\"\n",
            ),
            ("examples/quickstart.rs", "fn main() {}\n"),
            ("crates/core/src/binary.rs", "pub fn f() {}\n"),
        ],
        &[],
    );
}

#[test]
fn per_solve_bookkeeping_stays_flat() {
    let step = "Per-solve bookkeeping stays flat";
    tree_keeps(step);
    // c3ebde5^ crates/fem/src/bc.rs:10 and :33, before `DirichletBcs`
    // became one sorted `Vec`. Tests count too.
    flags(
        step,
        &[(
            "crates/fem/src/bc.rs",
            "use std::collections::BTreeMap;\n    values: BTreeMap<usize, f64>,\n",
        )],
        &[("crates/fem/src/bc.rs", 1), ("crates/fem/src/bc.rs", 2)],
    );
    flags(
        step,
        &[(
            "crates/core/src/global.rs",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        )],
        &[("crates/core/src/global.rs", 3)],
    );
}

#[test]
fn no_content_hash_in_product_code() {
    let step = "No content hash in product code";
    tree_keeps(step);
    // b025944^ crates/linalg/src/schur.rs:229–233, before a clean shard was
    // found by an exact diff.
    let hashed = "fn block_fingerprint(interior: &CsrMatrix, a_ks: &CsrMatrix, a_sk: &CsrMatrix) -> u64 {\n    \
                  matrix_fingerprint(interior)\n        ^ matrix_fingerprint(a_ks).rotate_left(16)\n        \
                  ^ matrix_fingerprint(a_sk).rotate_left(32)\n}\n";
    flags(
        step,
        &[("crates/linalg/src/schur.rs", hashed)],
        &[
            ("crates/linalg/src/schur.rs", 2),
            ("crates/linalg/src/schur.rs", 3),
            ("crates/linalg/src/schur.rs", 4),
        ],
    );
    flags(
        step,
        &[(
            "crates/linalg/src/backend.rs",
            "pub fn matrix_fingerprint(a: &CsrMatrix) -> u64 {\n    0\n}\n#[cfg(test)]\nmod tests {\n    \
             fn f(a: &CsrMatrix) -> u64 { super::matrix_fingerprint(a) }\n}\n",
        )],
        &[],
    );
}

#[test]
fn one_solver_selection_outside_linalg() {
    let step = "One solver selection outside linalg";
    tree_keeps(step);
    // f3a2098 crates/core/src/local.rs:42–45 and :201, before
    // `LinearSolver` became the one selection outside linalg.
    let local = "use morestress_linalg::{\n    dot, gram_panel, DenseMatrix, DirectCholesky, MemoryFootprint, \
                 PartitionHint, SolverBackend,\n    WorkPool,\n};\n        \
                 let chol = DirectCholesky::default().prepare(Arc::clone(&a_ff))?;\n";
    flags(
        step,
        &[("crates/core/src/local.rs", local)],
        &[
            ("crates/core/src/local.rs", 2),
            ("crates/core/src/local.rs", 5),
        ],
    );
    // A variant's payload is not its name, also on the enum's first line
    // (which the shell step skipped), and a test names no backend either.
    flags(
        step,
        &[(
            "src/lib.rs",
            "enum Choice { Direct(DirectCholesky), Auto }\n#[cfg(test)]\nmod tests {\n    \
             fn f() -> Gmres { todo!() }\n}\n",
        )],
        &[("src/lib.rs", 1), ("src/lib.rs", 4)],
    );
    flags(
        step,
        &[(
            "crates/campaign/src/spec.rs",
            "pub enum SolverChoice {\n    /// Doc.\n    #[default]\n    Direct,\n    Gmres,\n    Cg,\n    Auto,\n}\n\
             let a = LinearSolver::Auto;\nlet b = FillOrdering::Auto;\nlet c = SolverChoice::Gmres;\n\
             // DirectCholesky, in a comment\nlet d = \"Sharded\";\n",
        )],
        &[],
    );
    flags(
        step,
        &[(
            "crates/linalg/src/backend.rs",
            "pub struct DirectCholesky;\n",
        )],
        &[],
    );
}

#[test]
fn one_report_builder() {
    let step = "One report builder";
    tree_keeps(step);
    // d75f7d2 crates/core/src/global.rs:468 and :555, two `GlobalStats`
    // literals before the report was built in one place.
    flags(
        step,
        &[(
            "crates/core/src/global.rs",
            "        let mut stats = GlobalStats {\n            wall_time: Duration::ZERO,\n        };\n\n        \
             let stats = GlobalStats {\n            wall_time: start.elapsed(),\n        };\n",
        )],
        &[("crates/core/src/global.rs", 1), ("crates/core/src/global.rs", 5)],
    );
    // A signature's return type is exempt; a literal after it on the same
    // line is not (aece436^ one-line fixture).
    flags(
        step,
        &[(
            "crates/fixture/src/lib.rs",
            "fn f() -> X { let r = &SolveReport {\n",
        )],
        &[("crates/fixture/src/lib.rs", 1)],
    );
    flags(
        step,
        &[(
            "crates/fixture/src/lib.rs",
            "-> &SolveReport {\n    pub(crate) fn description(&self) -> &SolveReport {\n\
             impl Deref for GlobalStats {\npub struct GlobalStats {\nfn new() -> GlobalStats {\n    \
             GlobalStats {\n// let r = SolveReport {\nlet s = \"SolveReport {\";\n",
        )],
        &[],
    );
    flags(
        step,
        &[("crates/linalg/src/backend.rs", "        SolveReport {\n")],
        &[],
    );
    // Product code below a test module counts.
    flags(
        step,
        &[(
            "crates/core/src/simulator.rs",
            "#[cfg(test)]\nmod tests {}\nfn f() -> X {\n    let r = SolveReport {\n",
        )],
        &[("crates/core/src/simulator.rs", 4)],
    );
}

#[test]
fn stats_carry_the_report() {
    let step = "Stats carry the report";
    tree_keeps(step);
    // The three structs at 8739187, before `GlobalStats` and `SolveStats`
    // carried the report: fifteen mirrored fields on `GlobalStats` (the
    // report's fourteen and `ordering`), two on `SolveStats`.
    let report = include_str!("fixtures/stats-8739187/backend.rs.txt");
    let global = include_str!("fixtures/stats-8739187/global.rs.txt");
    let driver = include_str!("fixtures/stats-8739187/driver.rs.txt");
    let found = check(
        step,
        &[
            ("crates/linalg/src/backend.rs", report),
            ("crates/core/src/global.rs", global),
            ("crates/fem/src/driver.rs", driver),
        ],
    );
    let mirrored = |path: &str| -> Vec<&str> {
        found
            .iter()
            .filter(|v| v.path == path)
            .map(|v| v.what.split('`').nth(1).unwrap())
            .collect()
    };
    assert_eq!(
        mirrored("crates/core/src/global.rs"),
        [
            "iterations",
            "backend",
            "workers",
            "factor_workers",
            "ordering",
            "factor_nnz",
            "shards",
            "interface_dofs",
            "shard_factor_bytes",
            "shards_refactored",
            "shards_reused",
            "shards_degraded",
            "verified_residual",
            "degradation",
            "plan_stats",
        ]
    );
    assert_eq!(
        mirrored("crates/fem/src/driver.rs"),
        ["iterations", "backend"]
    );
    assert_eq!(found.len(), 17);
    // Fields are read by braces, at any indentation (the shell step read
    // exactly four spaces).
    let report = "pub struct SolveReport {\n    pub backend: &'static str,\n}\n";
    flags(
        step,
        &[
            ("crates/linalg/src/backend.rs", report),
            (
                "crates/core/src/global.rs",
                "pub struct GlobalStats {\n    pub wall_time: Duration,\n}\n",
            ),
            (
                "crates/fem/src/driver.rs",
                "pub struct SolveStats {\n        pub backend: &'static str,\n}\n",
            ),
        ],
        &[("crates/fem/src/driver.rs", 2)],
    );
    // Each struct must be there.
    flags(
        step,
        &[
            ("crates/linalg/src/backend.rs", report),
            ("crates/core/src/global.rs", "pub struct GlobalStats;\n"),
        ],
        &[
            ("crates/core/src/global.rs", 1),
            ("crates/fem/src/driver.rs", 1),
        ],
    );
}

#[test]
fn krylov_engines_stay_in_linalg() {
    let step = "Krylov engines stay in linalg";
    tree_keeps(step);
    // 8739187^ crates/linalg/src/lib.rs:130–133 and
    // crates/linalg/tests/proptests.rs:9–12, before the Krylov solvers
    // became private engines.
    flags(
        step,
        &[
            (
                "crates/linalg/src/lib.rs",
                "pub use iterative::{\n    refine, solve_cg, solve_gmres, CgOptions, GmresOptions, \
                 IterativeSolution,\n    JacobiPreconditioner, Preconditioner, RefineOptions, SsorPreconditioner,\n};\n",
            ),
            (
                "crates/linalg/tests/proptests.rs",
                "use morestress_linalg::{\n    axpy, dot, dot_panel, geometric_dissection, gram_panel, \
                 reverse_cuthill_mckee, solve_cg,\n    solve_gmres, Auto, BlockedKernel, CgOptions, CooMatrix,\n    \
                 FactorCache, FaultPlan, FillOrdering, GmresOptions, Isa, JacobiPreconditioner, LinalgError,\n",
            ),
        ],
        &[
            ("crates/linalg/tests/proptests.rs", 2),
            ("crates/linalg/tests/proptests.rs", 3),
            ("crates/linalg/tests/proptests.rs", 4),
            ("crates/linalg/src/lib.rs", 1),
        ],
    );
    // A braced re-export through `iterative`, which the shell step's
    // `pub use iterative` pattern missed.
    flags(
        step,
        &[(
            "crates/linalg/src/lib.rs",
            "mod iterative;\npub(crate) use iterative::Precond;\npub use crate::{\n    \
             iterative::refine,\n    kernel::Isa,\n};\n",
        )],
        &[("crates/linalg/src/lib.rs", 3)],
    );
    flags(
        step,
        &[
            ("examples/solve.rs", "// solve_gmres, as the comment says\n"),
            (
                "tests/end_to_end.rs",
                "let p = JacobiPreconditioner::new(&a);\n",
            ),
        ],
        &[("examples/solve.rs", 1), ("tests/end_to_end.rs", 1)],
    );
}
