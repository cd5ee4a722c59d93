//! Persistent incremental solver sessions.
//!
//! A [`Session`] keeps one [`SatSolver`] + [`Blaster`] pair alive across
//! successive verdict-grade queries instead of rebuilding them per query.
//! The key observation is that nothing a query *asserts* needs to be
//! permanent: every constraint is lowered to its Tseitin output literal and
//! passed to [`SatSolver::solve_assuming`] as an assumption, so the only
//! clauses that outlive a query are
//!
//! - Tseitin gate definitions (satisfiable by construction: they merely
//!   define gate outputs in terms of inputs), and
//! - the division relation constraints the blaster introduces for its
//!   internal quotient/remainder symbols (also definitional — for any
//!   dividend and divisor a witness exists),
//!
//! plus learned clauses, which CDCL derives by resolution over that database
//! alone and which are therefore sound facts about the circuit structure,
//! valid for every future query. The core can consequently never go dead
//! ([`SatSolver::is_dead`] is checked defensively anyway, falling back to a
//! fresh solve).
//!
//! What the session buys on the hot path: along a deepening execution path
//! the constraint prefix only grows, and under hash-consing a repeated
//! constraint is pointer-identical, so the blaster's memo table turns every
//! previously-seen conjunct into an O(1) lookup — each new branch pays only
//! for blasting its *one* new conjunct plus a SAT call that reuses all
//! learned structure. "Forking" a path costs nothing at all, because the
//! session holds no per-path state: sibling paths interleave freely on the
//! same core.
//!
//! ## Structural soundness and SymId reuse
//!
//! The session is shared across *all* paths a worker explores, and sibling
//! paths number their symbols independently (see `SymCounter` in
//! `ddt-symvm`): the same `SymId` may denote different symbols in different
//! queries. That is sound for the same reason the shared query cache is
//! sound — each query is a self-contained structural formula, and
//! assumptions activate only that query's constraints. The one hazard is a
//! `SymId` recurring at a *different width*, which the blaster treats as an
//! error; the session tracks first-seen widths and resets the core when a
//! conflict appears (counted in [`Session::resets`]).
//!
//! ## Why verdict-grade only
//!
//! Session models depend on solver history (phase saving, learned clauses
//! from earlier queries), so they are not the canonical model a fresh
//! canonical-order solve would produce. Verdicts, by contrast, are semantic
//! properties of the query. The session therefore only answers queries whose
//! models the caller discards; satisfying assignments it happens to find are
//! deposited in the cache's verdict-model ring, never in the exact map.

use std::collections::{BTreeSet, HashMap, HashSet};

use ddt_expr::{collect_sym_widths, Assignment, Expr, SymId};

use crate::blast::Blaster;
use crate::sat::{SatOutcome, SatSolver};

/// Variable-count cap before the core is rebuilt. The CDCL core's decision
/// loop scans all variables, and learned clauses are never garbage
/// collected, so an unboundedly growing core would eventually cost more
/// than fresh solves; resetting forgets learned structure but re-blasting
/// is cheap under the interner.
const MAX_VARS: usize = 200_000;

/// Clause-count cap before the core is rebuilt (problem + learned).
const MAX_CLAUSES: usize = 1_000_000;

/// Answer from a session probe.
pub(crate) enum ProbeAnswer {
    /// Satisfiable; the model covers the requested symbols (history
    /// dependent — verdict-grade use only).
    Sat(Assignment),
    /// Unsatisfiable under the asserted assumptions.
    Unsat,
}

/// A persistent incremental solving core (one per [`crate::Solver`]).
pub(crate) struct Session {
    sat: SatSolver,
    blaster: Blaster,
    /// First-seen width per symbol; a conflicting reuse forces a reset.
    sym_widths: HashMap<SymId, u32>,
    /// Constraints already width-checked this core generation (pointer
    /// hashing under the interner makes membership O(1)).
    width_checked: HashSet<Expr>,
    /// Queries answered by this session across all core generations.
    pub probes: u64,
    /// Times the core was rebuilt (size caps or symbol-width conflicts).
    pub resets: u64,
}

impl Session {
    pub fn new() -> Session {
        let (sat, blaster) = fresh_core();
        Session {
            sat,
            blaster,
            sym_widths: HashMap::new(),
            width_checked: HashSet::new(),
            probes: 0,
            resets: 0,
        }
    }

    /// SAT conflicts accumulated by the current core (for stats deltas).
    pub fn conflicts(&self) -> u64 {
        self.sat.conflicts
    }

    fn reset(&mut self) {
        let (sat, blaster) = fresh_core();
        self.sat = sat;
        self.blaster = blaster;
        self.sym_widths.clear();
        self.width_checked.clear();
        self.resets += 1;
    }

    /// Registers the symbol widths of `c`, reporting whether they are
    /// consistent with everything the current core has seen.
    fn widths_ok(&mut self, c: &Expr) -> bool {
        if self.width_checked.contains(c) {
            return true;
        }
        let mut widths = HashMap::new();
        collect_sym_widths(c, &mut widths);
        for (id, w) in &widths {
            match self.sym_widths.get(id) {
                Some(prev) if prev != w => return false,
                Some(_) => {}
                None => {
                    self.sym_widths.insert(*id, *w);
                }
            }
        }
        self.width_checked.insert(c.clone());
        true
    }

    /// Decides the conjunction of `key` (canonical order) on the persistent
    /// core. On `Sat` the returned model assigns every symbol in `syms`.
    ///
    /// Returns `None` when the session cannot answer soundly (a core that
    /// went dead — which the satisfiable-database invariant should prevent —
    /// after a defensive reset); the caller falls back to a fresh solve.
    pub fn probe(&mut self, key: &[Expr], syms: &BTreeSet<SymId>) -> Option<ProbeAnswer> {
        if self.sat.num_vars() > MAX_VARS || self.sat.num_clauses() > MAX_CLAUSES {
            self.reset();
        }
        if !key.iter().all(|c| self.widths_ok(c)) {
            // A SymId recurred at a new width: this query belongs to a path
            // whose numbering clashes with the core's. Start a fresh core
            // for it (after reset, registration of this key must succeed —
            // a single well-formed query uses each symbol at one width).
            self.reset();
            for c in key {
                if !self.widths_ok(c) {
                    return None; // Ill-formed query; let the fresh path assert.
                }
            }
        }
        let mut assumptions = Vec::with_capacity(key.len());
        for c in key {
            let bits = self.blaster.blast(&mut self.sat, c);
            assumptions.push(bits[0]);
        }
        if self.sat.is_dead() {
            // Should be unreachable (the permanent database is definitional,
            // hence satisfiable); recover rather than report a bogus Unsat.
            self.reset();
            return None;
        }
        let outcome = self.sat.solve_assuming(&assumptions);
        if self.sat.is_dead() {
            self.reset();
            return None;
        }
        self.probes += 1;
        Some(match outcome {
            SatOutcome::Unsat => ProbeAnswer::Unsat,
            SatOutcome::Sat => {
                ProbeAnswer::Sat(
                    syms.iter()
                        .map(|&id| (id, self.blaster.sym_model(&self.sat, id).unwrap_or(0)))
                        .collect(),
                )
            }
        })
    }

    /// [`Self::probe`] as a portfolio lane: the solve aborts (returning
    /// `None`) once `cancel` reads true. A defensive mid-probe reset swaps
    /// in a core without the flag — that probe then runs to completion,
    /// which is safe (its answer is genuine) if not promptly cancellable.
    pub fn probe_cancellable(
        &mut self,
        key: &[Expr],
        syms: &BTreeSet<SymId>,
        cancel: &std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Option<ProbeAnswer> {
        self.sat.set_cancel(cancel.clone());
        let answer = self.probe(key, syms);
        // `self.sat` after `probe` is the core that ran the final solve (a
        // reset installs the replacement before solving), so `aborted` is
        // about this probe.
        let aborted = self.sat.aborted();
        self.sat.clear_cancel();
        if aborted {
            return None;
        }
        answer
    }
}

fn fresh_core() -> (SatSolver, Blaster) {
    let mut sat = SatSolver::new();
    let blaster = Blaster::new(&mut sat);
    (sat, blaster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_expr::{Expr, SymId};

    fn c32(v: u64) -> Expr {
        Expr::constant(v, 32)
    }

    fn sym(id: u32) -> Expr {
        Expr::sym(SymId(id), 32)
    }

    fn key_of(cs: &[Expr]) -> Vec<Expr> {
        ddt_expr::cache_key(cs)
    }

    fn syms_of(key: &[Expr]) -> BTreeSet<SymId> {
        let mut s = BTreeSet::new();
        for c in key {
            ddt_expr::collect_syms(c, &mut s);
        }
        s
    }

    fn probe(sess: &mut Session, cs: &[Expr]) -> ProbeAnswer {
        let key = key_of(cs);
        let syms = syms_of(&key);
        sess.probe(&key, &syms).expect("session must answer")
    }

    #[test]
    fn growing_prefix_reuses_the_core() {
        let mut sess = Session::new();
        let x = sym(0);
        let mut cs = vec![x.ult(&c32(100))];
        for i in 0..8u64 {
            cs.push(x.ne(&c32(i)));
            match probe(&mut sess, &cs) {
                ProbeAnswer::Sat(m) => {
                    let asg = m;
                    assert!(cs.iter().all(|c| c.eval_bool(&asg)));
                }
                ProbeAnswer::Unsat => panic!("prefix is satisfiable"),
            }
        }
        assert_eq!(sess.probes, 8);
        assert_eq!(sess.resets, 0);
    }

    #[test]
    fn unsat_under_assumptions_does_not_poison_later_queries() {
        let mut sess = Session::new();
        let x = sym(0);
        let contradiction = [x.ult(&c32(5)), c32(10).ult(&x)];
        assert!(matches!(probe(&mut sess, &contradiction), ProbeAnswer::Unsat));
        // The same core must still prove satisfiable queries satisfiable.
        let fine = [x.ult(&c32(5)), x.ne(&c32(0))];
        match probe(&mut sess, &fine) {
            ProbeAnswer::Sat(m) => assert!(fine.iter().all(|c| c.eval_bool(&m))),
            ProbeAnswer::Unsat => panic!("x in (0, 5) is satisfiable"),
        }
        assert_eq!(sess.resets, 0);
    }

    #[test]
    fn interleaved_sibling_queries_share_one_core() {
        // Two "paths" constraining the same SymId differently, interleaved:
        // structural solving keeps them independent.
        let mut sess = Session::new();
        let x = sym(0);
        let path_a = [x.eq(&c32(3))];
        let path_b = [x.eq(&c32(9))];
        for _ in 0..3 {
            match probe(&mut sess, &path_a) {
                ProbeAnswer::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)), 3),
                ProbeAnswer::Unsat => panic!(),
            }
            match probe(&mut sess, &path_b) {
                ProbeAnswer::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)), 9),
                ProbeAnswer::Unsat => panic!(),
            }
        }
        assert_eq!(sess.resets, 0);
    }

    #[test]
    fn width_conflict_resets_instead_of_panicking() {
        let mut sess = Session::new();
        let as32 = [sym(0).ult(&c32(5))];
        assert!(matches!(probe(&mut sess, &as32), ProbeAnswer::Sat(_)));
        // The same id reused at 8 bits (a sibling path's independent
        // numbering): must recycle the core, not die.
        let x8 = Expr::sym(SymId(0), 8);
        let as8 = [x8.eq(&Expr::constant(200, 8))];
        match probe(&mut sess, &as8) {
            ProbeAnswer::Sat(m) => assert_eq!(m.get_or_zero(SymId(0)) & 0xff, 200),
            ProbeAnswer::Unsat => panic!(),
        }
        assert_eq!(sess.resets, 1);
    }

    #[test]
    fn division_constraints_survive_across_queries() {
        // Division introduces permanently asserted definitional clauses;
        // they must not constrain later unrelated queries.
        let mut sess = Session::new();
        let x = sym(0);
        let div = [x.udiv(&c32(3)).eq(&c32(10))];
        match probe(&mut sess, &div) {
            ProbeAnswer::Sat(m) => {
                let v = m.get_or_zero(SymId(0)) & 0xffff_ffff;
                assert!((30..=32).contains(&v), "got {v}");
            }
            ProbeAnswer::Unsat => panic!(),
        }
        // An unrelated query on a fresh symbol.
        let y = sym(1);
        match probe(&mut sess, &[y.eq(&c32(77))]) {
            ProbeAnswer::Sat(m) => assert_eq!(m.get_or_zero(SymId(1)) & 0xffff_ffff, 77),
            ProbeAnswer::Unsat => panic!(),
        }
        assert_eq!(sess.resets, 0);
    }
}
