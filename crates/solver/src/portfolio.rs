//! A racing solver portfolio for hard verdict-grade queries.
//!
//! Query latency in CDCL is heavy-tailed: most branch-feasibility checks
//! decide in microseconds, but a rare query lands in a bad search region and
//! dominates a whole quantum. The standard mitigation (see the Baldoni
//! symbolic-execution survey, PAPERS.md) is a *portfolio*: run several
//! decision strategies concurrently and take the first answer. Because a
//! verdict is a semantic property of the constraint set, every lane returns
//! the same Sat/Unsat — whichever lane wins, exploration (and therefore the
//! campaign report) is byte-identical.
//!
//! Lanes:
//!
//! - **session** (caller thread): the persistent incremental core, strongest
//!   on deepening-path queries where everything but one conjunct is already
//!   blasted and learned clauses transfer;
//! - **fresh** (worker thread): a from-scratch canonical blast, strongest
//!   when the session's accumulated search state is a liability (its model,
//!   when it wins, is the canonical one for the key and is memoized as
//!   such);
//! - **probe** (worker thread): a shared-cache consultation (exact entry,
//!   UNSAT-subset subsumption, counterexample-ring evaluation) — in a
//!   multi-worker run a sibling may have deposited the answer after this
//!   worker's own pre-solve lookup missed.
//!
//! Cancellation order: a lane that produces an answer first *sends* it on
//! the result channel, then raises the shared cancel flag; the SAT cores
//! poll the flag between conflicts ([`crate::sat::CANCEL_POLL_CONFLICTS`])
//! and abandon their search. Send-before-cancel means the channel always
//! holds a message by the time any lane observes the flag, so the
//! block-for-answer path below cannot deadlock. An aborted lane's outcome is
//! discarded — [`SatSolver::aborted`] marks it meaningless — and the race
//! joins every lane before returning, so no solver thread outlives its
//! query.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use ddt_expr::{Expr, SymId};

use crate::blast::Blaster;
use crate::cache::{CacheAnswer, QueryCache, QueryGrade};
use crate::sat::{SatOutcome, SatSolver};
use crate::session::{ProbeAnswer, Session};
use crate::SatResult;

/// Which lane answered first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lane {
    Session,
    Fresh,
    Probe,
}

/// Result of one portfolio race.
pub(crate) struct RaceOutcome {
    pub result: SatResult,
    pub winner: Lane,
    /// SAT conflicts spent by the winning lane. Losing lanes' conflicts are
    /// not counted: their work is discarded by design, and the counter
    /// feeds per-verdict cost stats.
    pub conflicts: u64,
}

/// Message sent by a finishing lane: (lane, result, conflicts).
type LaneMsg = (Lane, SatResult, u64);

/// Races `part` (a canonical verdict-grade component key) across the
/// available lanes. The session lane runs on the caller's thread because it
/// borrows the solver's persistent core; the fresh and probe lanes run on
/// scoped worker threads. Always returns a decided verdict: the fresh lane
/// is complete and only aborts once another lane has already answered.
pub(crate) fn race(
    part: &[Expr],
    part_syms: &BTreeSet<SymId>,
    session: Option<&mut Session>,
    cache: Option<&Arc<QueryCache>>,
) -> RaceOutcome {
    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<LaneMsg>();
    std::thread::scope(|scope| {
        // Fresh canonical blast lane.
        {
            let cancel = cancel.clone();
            let tx = tx.clone();
            scope.spawn(move || {
                let mut sat = SatSolver::new();
                sat.set_cancel(cancel.clone());
                let mut blaster = Blaster::new(&mut sat);
                for c in part {
                    blaster.assert_true(&mut sat, c);
                }
                let outcome = sat.solve();
                if sat.aborted() {
                    return; // Lost the race; outcome is meaningless.
                }
                let result = match outcome {
                    SatOutcome::Unsat => SatResult::Unsat,
                    SatOutcome::Sat => {
                        SatResult::Sat(
                            part_syms
                                .iter()
                                .map(|&id| (id, blaster.sym_model(&sat, id).unwrap_or(0)))
                                .collect(),
                        )
                    }
                };
                let conflicts = sat.conflicts;
                let _ = tx.send((Lane::Fresh, result, conflicts));
                cancel.store(true, Ordering::Relaxed);
            });
        }
        // Cached-answer probe lane.
        if let Some(cache) = cache {
            let cancel = cancel.clone();
            let tx = tx.clone();
            let cache = Arc::clone(cache);
            scope.spawn(move || {
                if cancel.load(Ordering::Relaxed) {
                    return;
                }
                let result = match cache.lookup(part, QueryGrade::Verdict) {
                    CacheAnswer::Exact(hit) => hit,
                    CacheAnswer::UnsatSubset => SatResult::Unsat,
                    CacheAnswer::ModelReuse(m) => SatResult::Sat(m),
                    CacheAnswer::Miss => return, // Nothing to contribute.
                };
                let _ = tx.send((Lane::Probe, result, 0));
                cancel.store(true, Ordering::Relaxed);
            });
        }
        // Session lane, on this thread (it borrows the persistent core).
        let mut session_msg: Option<LaneMsg> = None;
        if let Some(session) = session {
            let before = session.conflicts();
            if let Some(answer) = session.probe_cancellable(part, part_syms, &cancel) {
                let conflicts = session.conflicts().saturating_sub(before);
                let result = match answer {
                    ProbeAnswer::Unsat => SatResult::Unsat,
                    ProbeAnswer::Sat(m) => SatResult::Sat(m),
                };
                session_msg = Some((Lane::Session, result, conflicts));
            }
        }
        drop(tx);
        let (winner, result, conflicts) = match session_msg {
            // The session decided; a worker lane still wins the race if its
            // answer is already in the channel (it finished first).
            Some(own) => match rx.try_recv() {
                Ok(msg) => msg,
                Err(_) => own,
            },
            // The session was cancelled mid-solve or could not answer: block
            // for the worker lanes. Send-before-cancel guarantees a message
            // is (or will be) in the channel.
            None => rx.recv().expect("a portfolio lane must answer"),
        };
        cancel.store(true, Ordering::Relaxed);
        RaceOutcome { result, winner, conflicts }
        // Scope exit joins both worker threads; cancelled cores give up at
        // their next conflict-poll.
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;

    fn sym(id: u32) -> Expr {
        Expr::sym(SymId(id), 32)
    }

    fn c32(v: u64) -> Expr {
        Expr::constant(v, 32)
    }

    /// A query that defeats the fast-path candidate models and slicing (one
    /// entangled component).
    fn hard_sat_query() -> Vec<Expr> {
        let x = sym(0);
        let y = sym(1);
        vec![
            x.add(&y).eq(&c32(0x1234_5678)),
            x.xor(&y).ne(&c32(0)),
            x.ult(&c32(0x9000_0000)),
            c32(0x100).ult(&y),
        ]
    }

    fn contradiction() -> Vec<Expr> {
        let x = sym(0);
        vec![x.ult(&c32(5)), c32(10).ult(&x)]
    }

    fn racing_solver() -> Solver {
        let mut s = Solver::new();
        s.set_portfolio_min_nodes(0); // Race everything.
        s
    }

    #[test]
    fn portfolio_agrees_with_plain_on_sat_and_unsat() {
        for q in [hard_sat_query(), contradiction()] {
            let mut racing = racing_solver();
            let mut plain = Solver::new();
            plain.set_portfolio(false);
            plain.set_slicing(false);
            plain.set_incremental(false);
            assert_eq!(racing.is_feasible(&q), plain.is_feasible(&q), "on {q:?}");
            assert!(racing.stats().portfolio_races > 0, "race never engaged");
        }
    }

    #[test]
    fn race_wins_are_attributed_to_exactly_one_lane() {
        let mut s = racing_solver();
        let q = hard_sat_query();
        assert!(s.is_feasible(&q));
        assert!(!s.is_feasible(&contradiction()));
        let st = s.stats();
        assert_eq!(
            st.portfolio_session_wins + st.portfolio_fresh_wins + st.portfolio_probe_wins,
            st.portfolio_races,
            "every race must have exactly one winner: {st:?}"
        );
    }

    #[test]
    fn repeated_races_stay_deterministic_in_verdict() {
        // Whatever lane wins each time, the verdict never flips.
        let q = hard_sat_query();
        for _ in 0..8 {
            let mut s = racing_solver();
            assert!(s.is_feasible(&q));
        }
    }

    #[test]
    fn race_without_session_or_cache_still_answers() {
        let mut s = Solver::uncached();
        s.set_portfolio_min_nodes(0);
        s.set_incremental(false); // Fresh lane only.
        assert!(s.is_feasible(&hard_sat_query()));
        assert!(!s.is_feasible(&contradiction()));
        let st = s.stats();
        assert_eq!(st.portfolio_fresh_wins, st.portfolio_races);
    }

    #[test]
    fn model_grade_checks_never_race() {
        let mut s = racing_solver();
        match s.check(&hard_sat_query()) {
            SatResult::Sat(m) => {
                assert!(hard_sat_query().iter().all(|c| c.eval_bool(&m)));
            }
            SatResult::Unsat => panic!("query is satisfiable"),
        }
        assert_eq!(s.stats().portfolio_races, 0, "model-grade must stay canonical");
    }
}
