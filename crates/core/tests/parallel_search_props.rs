//! Property-based tests for the parallel multi-chain search plumbing:
//!
//! 1. **Budget splitting**: the per-chain budgets always sum exactly to
//!    the total, differ by at most one evaluation, and never starve a
//!    chain when the total covers the chain count; wall-clock limits and
//!    patience pass through untouched.
//! 2. **Atomic best-cost encoding**: [`SharedBestCost`] is a linearizable
//!    minimum under concurrent updates from many threads — the final
//!    value equals the sequential minimum, and `observe` reports an
//!    improvement exactly for strict global minima.
//! 3. **Cross-thread aggregation**: [`SearchRequest`] results add up —
//!    total evals equal the per-chain sum, delta telemetry balances
//!    (applies = commits + rollbacks = evals), and the whole result is
//!    reproducible for a fixed `(seed, chains)` at any scheduling.

use flexflow_core::optimizer::{split_budget, Budget, SearchRequest, SharedBestCost};
use flexflow_core::sim::SimConfig;
use flexflow_core::strategy::Strategy;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::clusters;
use flexflow_opgraph::zoo;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn budget_split_preserves_total_and_fairness(
        total in 1u64..50_000,
        chains in 1usize..32,
        patience in 0.0f64..1.0,
    ) {
        let budget = Budget {
            max_evals: total,
            max_seconds: 12.5,
            patience_fraction: patience,
        };
        let parts = split_budget(budget, chains);
        prop_assert_eq!(parts.len(), chains);
        let sum: u64 = parts.iter().map(|p| p.max_evals).sum();
        prop_assert_eq!(sum, total, "per-chain budgets must sum to the total");
        let min = parts.iter().map(|p| p.max_evals).min().unwrap();
        let max = parts.iter().map(|p| p.max_evals).max().unwrap();
        prop_assert!(max - min <= 1, "fair split differs by at most one");
        if total >= chains as u64 {
            prop_assert!(min >= 1, "no chain starves when the budget covers all chains");
        }
        for p in &parts {
            prop_assert_eq!(p.max_seconds, budget.max_seconds);
            prop_assert_eq!(p.patience_fraction, budget.patience_fraction);
        }
    }

    #[test]
    fn budget_split_keeps_wall_clock_budgets_unbounded(chains in 1usize..32) {
        let parts = split_budget(Budget::seconds(3.0), chains);
        prop_assert!(parts.iter().all(|p| p.max_evals == u64::MAX));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn shared_best_cost_is_the_min_under_concurrency(
        costs in prop::collection::vec(0.0f64..1e12, 4..64),
    ) {
        let cell = SharedBestCost::new();
        let workers = 4;
        std::thread::scope(|s| {
            for w in 0..workers {
                let cell = &cell;
                let costs = &costs;
                s.spawn(move || {
                    for c in costs.iter().skip(w).step_by(workers) {
                        cell.observe(*c);
                    }
                });
            }
        });
        let expected = costs.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(
            cell.get().to_bits(),
            expected.to_bits(),
            "concurrent fetch_min must converge to the true minimum"
        );
    }

    #[test]
    fn shared_best_cost_reports_strict_improvements_only(
        costs in prop::collection::vec(0.0f64..1e9, 1..40),
    ) {
        let cell = SharedBestCost::new();
        let mut running = f64::INFINITY;
        for &c in &costs {
            let improved = cell.observe(c);
            prop_assert_eq!(
                improved,
                c < running,
                "observe({}) with running min {} reported {}",
                c,
                running,
                improved
            );
            running = running.min(c);
            prop_assert_eq!(cell.get().to_bits(), running.to_bits());
        }
    }
}

proptest! {
    // Each case runs a real (small) multi-chain search; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn parallel_results_aggregate_and_reproduce(
        seed in 0u64..1_000,
        chains in 1usize..5,
        evals in 40u64..120,
        exchange_every in prop_oneof![Just(0u64), Just(8u64), Just(32u64)],
    ) {
        let graph = zoo::lenet(32);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let initials = [Strategy::data_parallel(&graph, &topo)];
        let run = || {
            SearchRequest::new(seed).chains(chains).exchange_every(exchange_every).run(
                &graph,
                &topo,
                &cost,
                &initials,
                Budget::evaluations(evals),
                SimConfig::default(),
            )
        };
        let a = run();

        // Aggregation: chain evals sum to the total; the budget split is
        // honored (each chain stops at its share or earlier via patience).
        prop_assert_eq!(a.chain_evals.len(), chains);
        prop_assert_eq!(a.evals, a.chain_evals.iter().sum::<u64>());
        let split = split_budget(Budget::evaluations(evals), chains);
        for (got, cap) in a.chain_evals.iter().zip(&split) {
            prop_assert!(*got <= cap.max_evals, "chain exceeded its budget share");
        }
        // Delta telemetry balances: one apply per proposal, each resolved
        // by exactly one commit (accepted) or rollback (rejected).
        prop_assert_eq!(a.telemetry.applies, a.evals);
        prop_assert_eq!(a.telemetry.commits, a.accepted);
        prop_assert_eq!(a.telemetry.rollbacks, a.evals - a.accepted);

        // Reproducibility: the same (seed, chains, exchange) is
        // bit-identical on a second run regardless of scheduling.
        let b = run();
        prop_assert_eq!(a.best_cost_us.to_bits(), b.best_cost_us.to_bits());
        prop_assert_eq!(a.best, b.best);
        prop_assert_eq!(a.evals, b.evals);
        prop_assert_eq!(a.chain_evals, b.chain_evals);
    }
}
