//! Row families too deep for the recursive ZDD operations. `count`,
//! `minimal` and `subset0` nest once per node on the family's longest
//! path, so one very long row — or thousands of short rows strung along
//! a long lo-chain — would overflow a 2 MB worker stack and abort the
//! process. The implicit phase skips such families, so the solve must
//! match the one with the implicit phase switched off.

use std::sync::Arc;
use ucp::cover::CoverMatrix;
use ucp::ucp_core::{Scg, ScgOptions, ScgOutcome, SolveRequest};
use ucp::ucp_engine::{Engine, EngineConfig};

/// The default stack of a spawned thread — what engine workers get.
const WORKER_STACK: usize = 2 << 20;

/// Three rows, the first spanning all 50,000 columns.
fn long_row() -> CoverMatrix {
    let n = 50_000;
    CoverMatrix::from_rows(n, vec![(0..n).collect(), vec![0, n - 1], vec![1, n - 2]])
}

/// 20,000 singleton rows: every row is one column wide, but the family's
/// lo-chain is 20,000 nodes deep.
fn many_singletons() -> CoverMatrix {
    let n = 20_000;
    CoverMatrix::from_rows(n, (0..n).map(|j| vec![j]).collect())
}

fn solve_on_worker_stack(m: CoverMatrix, opts: ScgOptions) -> ScgOutcome {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(move || Scg::run(SolveRequest::for_matrix(&m).options(opts)).unwrap())
        .unwrap()
        .join()
        .expect("the solve must not overflow a worker stack")
}

fn explicit_only() -> ScgOptions {
    let mut opts = ScgOptions::default();
    opts.core.use_implicit = false;
    opts
}

fn assert_same(what: &str, got: &ScgOutcome, want: &ScgOutcome) {
    assert_eq!(got.cost, want.cost, "{what}: cost");
    assert_eq!(got.lower_bound, want.lower_bound, "{what}: lower bound");
    assert_eq!(got.solution.cols(), want.solution.cols(), "{what}: cover");
    assert_eq!(got.core_rows, want.core_rows, "{what}: core rows");
    assert_eq!(got.core_cols, want.core_cols, "{what}: core cols");
    assert_eq!(got.zdd_stats, want.zdd_stats, "{what}: no implicit work");
    assert!(
        !got.degraded,
        "{what}: a skipped phase is not a degradation"
    );
}

#[test]
fn deep_families_solve_on_a_worker_stack_like_the_explicit_route() {
    for (what, m) in [("long row", long_row()), ("singletons", many_singletons())] {
        let got = solve_on_worker_stack(m.clone(), ScgOptions::default());
        let want = solve_on_worker_stack(m.clone(), explicit_only());
        assert!(got.solution.is_feasible(&m), "{what}: infeasible cover");
        assert_same(what, &got, &want);
    }
}

#[test]
fn a_long_row_is_one_engine_job() {
    let m = Arc::new(long_row());
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 1,
    });
    let job = engine
        .submit(SolveRequest::for_shared(Arc::clone(&m)))
        .unwrap();
    let got = job.wait().expect("the engine job completes");
    engine.shutdown();
    let want = solve_on_worker_stack((*m).clone(), explicit_only());
    assert_same("engine job", &got, &want);
}
