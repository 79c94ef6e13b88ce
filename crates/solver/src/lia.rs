//! Linear integer arithmetic: a general simplex over exact rationals
//! (in the style of Dutertre & de Moura) with branch-and-bound for
//! integrality.
//!
//! The solver decides satisfiability of conjunctions of linear constraints
//! `Σ aᵢ·xᵢ ⋈ c` with `⋈ ∈ {≤, ≥, =, <, >}`. All problem variables are
//! integer-valued (the refinement logic models every ordered sort as the
//! integers), so strict inequalities are normalised away (`x < c` becomes
//! `x ≤ c − 1`) and a rational relaxation is refined by branch-and-bound.

use crate::rational::Rational;
use std::collections::BTreeMap;

/// Identifier of an arithmetic variable.
pub type VarId = usize;

/// A linear expression `Σ aᵢ·xᵢ + c`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Coefficients per variable (no zero entries).
    pub coeffs: BTreeMap<VarId, Rational>,
    /// Constant offset.
    pub constant: Rational,
}

impl LinExpr {
    /// The constant expression `c`.
    pub fn constant(c: Rational) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable.
    pub fn variable(v: VarId) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Rational::ONE);
        LinExpr {
            coeffs,
            constant: Rational::ZERO,
        }
    }

    /// Adds another expression scaled by `k`.
    pub fn add_scaled(&mut self, other: &LinExpr, k: Rational) {
        for (v, a) in &other.coeffs {
            let entry = self.coeffs.entry(*v).or_insert(Rational::ZERO);
            *entry = *entry + *a * k;
        }
        self.constant = self.constant + other.constant * k;
        self.coeffs.retain(|_, a| !a.is_zero());
    }

    /// `self + other`.
    pub fn plus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, Rational::ONE);
        out
    }

    /// `self - other`.
    pub fn minus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, -Rational::ONE);
        out
    }

    /// `k * self`.
    pub fn scaled(&self, k: Rational) -> LinExpr {
        let mut out = LinExpr::default();
        out.add_scaled(self, k);
        out
    }

    /// True if the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the expression under an assignment (missing variables are
    /// treated as zero).
    pub fn eval(&self, assignment: &BTreeMap<VarId, Rational>) -> Rational {
        let mut acc = self.constant;
        for (v, a) in &self.coeffs {
            let val = assignment.get(v).copied().unwrap_or(Rational::ZERO);
            acc = acc + *a * val;
        }
        acc
    }
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr ≤ 0`
    Le,
    /// `expr = 0`
    Eq,
    /// `expr ≥ 0`
    Ge,
}

/// A linear constraint `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Relation against zero.
    pub rel: Rel,
}

impl Constraint {
    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint {
            expr: lhs.minus(&rhs),
            rel: Rel::Le,
        }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint {
            expr: lhs.minus(&rhs),
            rel: Rel::Eq,
        }
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint {
            expr: lhs.minus(&rhs),
            rel: Rel::Ge,
        }
    }

    /// `lhs < rhs` over the integers (`lhs ≤ rhs − 1`).
    pub fn lt_int(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        let mut expr = lhs.minus(&rhs);
        expr.constant = expr.constant + Rational::ONE;
        Constraint { expr, rel: Rel::Le }
    }

    /// `lhs > rhs` over the integers (`lhs ≥ rhs + 1`).
    pub fn gt_int(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        let mut expr = lhs.minus(&rhs);
        expr.constant = expr.constant - Rational::ONE;
        Constraint { expr, rel: Rel::Ge }
    }

    fn holds(&self, assignment: &BTreeMap<VarId, Rational>) -> bool {
        let v = self.expr.eval(assignment);
        match self.rel {
            Rel::Le => v <= Rational::ZERO,
            Rel::Eq => v.is_zero(),
            Rel::Ge => v >= Rational::ZERO,
        }
    }
}

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiaResult {
    /// Satisfiable with an integer model.
    Sat(BTreeMap<VarId, Rational>),
    /// Unsatisfiable, with an explanation: the sorted indices (into the
    /// checked constraint slice) of a subset that is unsatisfiable on its
    /// own — the constraints behind a Farkas row, a bound clash, or both
    /// branches of a branch-and-bound node.
    Unsat(Vec<usize>),
    /// The branch-and-bound budget was exhausted; treated as "possibly
    /// satisfiable" by callers (conservative for validity checking).
    Unknown,
}

impl LiaResult {
    /// True unless the result is [`LiaResult::Unsat`].
    pub fn possibly_sat(&self) -> bool {
        !matches!(self, LiaResult::Unsat(_))
    }
}

/// A bound's value and its reason: the index of the checked constraint
/// that asserted it, or the id of the branch-and-bound node that did.
type Bound = (Rational, usize);

/// Unsatisfiable: the reasons of the bounds that conflict.
type Conflict = Vec<usize>;

/// True when `x` lies beyond the bound `c` in the bound's direction
/// (above it for an upper bound, below it for a lower one).
fn beyond(upper: bool, x: Rational, c: Rational) -> bool {
    if upper {
        x > c
    } else {
        x < c
    }
}

/// A simplex tableau specialised to feasibility checking.
#[derive(Debug, Clone)]
struct Simplex {
    /// Number of variables (problem + slack).
    num_vars: usize,
    /// Rows: basic variable -> linear combination of non-basic variables.
    rows: BTreeMap<VarId, BTreeMap<VarId, Rational>>,
    /// Lower bounds.
    lower: BTreeMap<VarId, Bound>,
    /// Upper bounds.
    upper: BTreeMap<VarId, Bound>,
    /// Current assignment β.
    beta: BTreeMap<VarId, Rational>,
    /// Total pivots performed over the tableau's lifetime.
    pivots: u64,
}

impl Simplex {
    fn new(num_problem_vars: usize) -> Simplex {
        Simplex {
            num_vars: num_problem_vars,
            rows: BTreeMap::new(),
            lower: BTreeMap::new(),
            upper: BTreeMap::new(),
            beta: BTreeMap::new(),
            pivots: 0,
        }
    }

    fn beta(&self, v: VarId) -> Rational {
        self.beta.get(&v).copied().unwrap_or(Rational::ZERO)
    }

    fn set_beta(&mut self, v: VarId, val: Rational) {
        self.beta.insert(v, val);
    }

    /// Introduces a slack variable equal to the given combination of
    /// problem variables and returns its id.
    fn add_slack(&mut self, combo: &BTreeMap<VarId, Rational>) -> VarId {
        let s = self.num_vars;
        self.num_vars += 1;
        // The slack starts basic: s = Σ aᵢ·xᵢ, where each xᵢ is currently
        // non-basic (or basic — substitute its row).
        let mut row: BTreeMap<VarId, Rational> = BTreeMap::new();
        for (v, a) in combo {
            if let Some(vrow) = self.rows.get(v).cloned() {
                for (w, b) in vrow {
                    let e = row.entry(w).or_insert(Rational::ZERO);
                    *e = *e + *a * b;
                }
            } else {
                let e = row.entry(*v).or_insert(Rational::ZERO);
                *e = *e + *a;
            }
        }
        row.retain(|_, a| !a.is_zero());
        let val = row
            .iter()
            .map(|(v, a)| *a * self.beta(*v))
            .fold(Rational::ZERO, |x, y| x + y);
        self.rows.insert(s, row);
        self.set_beta(s, val);
        s
    }

    fn bounds(&mut self, upper: bool) -> &mut BTreeMap<VarId, Bound> {
        if upper {
            &mut self.upper
        } else {
            &mut self.lower
        }
    }

    /// Asserts `v ≤ c` (`upper`) or `v ≥ c` for the given reason. A clash
    /// with the opposite bound is explained by the two bounds' reasons.
    fn assert_bound(
        &mut self,
        v: VarId,
        c: Rational,
        upper: bool,
        why: usize,
    ) -> Result<(), Conflict> {
        if let Some(&(o, o_why)) = self.bounds(!upper).get(&v) {
            if beyond(upper, o, c) {
                return Err(vec![o_why, why]);
            }
        }
        if self
            .bounds(upper)
            .get(&v)
            .is_none_or(|&(b, _)| beyond(upper, b, c))
        {
            self.bounds(upper).insert(v, (c, why));
            if !self.rows.contains_key(&v) && beyond(upper, self.beta(v), c) {
                self.update_nonbasic(v, c);
            }
        }
        Ok(())
    }

    /// Sets a non-basic variable to a new value and updates all basic rows.
    fn update_nonbasic(&mut self, v: VarId, val: Rational) {
        let delta = val - self.beta(v);
        if delta.is_zero() {
            return;
        }
        let rows: Vec<(VarId, Rational)> = self
            .rows
            .iter()
            .filter_map(|(b, row)| row.get(&v).map(|a| (*b, *a)))
            .collect();
        for (b, a) in rows {
            let nb = self.beta(b) + a * delta;
            self.set_beta(b, nb);
        }
        self.set_beta(v, val);
    }

    /// Pivot: basic variable `b` leaves the basis, non-basic `n` enters.
    fn pivot(&mut self, b: VarId, n: VarId, new_b_value: Rational) {
        self.pivots += 1;
        let row_b = self.rows.remove(&b).expect("pivot on non-basic row");
        let a_bn = *row_b.get(&n).expect("entering variable not in row");
        // b = Σ a_bj x_j  =>  n = (b - Σ_{j≠n} a_bj x_j) / a_bn
        let mut row_n: BTreeMap<VarId, Rational> = BTreeMap::new();
        row_n.insert(b, a_bn.recip());
        for (j, a) in &row_b {
            if *j != n {
                row_n.insert(*j, -*a / a_bn);
            }
        }
        row_n.retain(|_, a| !a.is_zero());

        // Substitute n's new definition into every other row.
        let keys: Vec<VarId> = self.rows.keys().copied().collect();
        for k in keys {
            let row = self.rows.get(&k).cloned().unwrap_or_default();
            if let Some(a_kn) = row.get(&n).copied() {
                let mut new_row = row.clone();
                new_row.remove(&n);
                for (j, a) in &row_n {
                    let e = new_row.entry(*j).or_insert(Rational::ZERO);
                    *e = *e + a_kn * *a;
                }
                new_row.retain(|_, a| !a.is_zero());
                self.rows.insert(k, new_row);
            }
        }
        self.rows.insert(n, row_n);

        // Update assignments: b takes its target value, n is recomputed so
        // that b's row still holds, and all other basic variables follow.
        let delta_b = new_b_value - self.beta(b);
        let delta_n = delta_b / a_bn;
        let new_n = self.beta(n) + delta_n;

        // Recompute every basic variable's value from scratch after the
        // non-basic update (simpler than incremental bookkeeping and still
        // cheap at our problem sizes).
        self.set_beta(b, new_b_value);
        self.set_beta(n, new_n);
        let basics: Vec<VarId> = self.rows.keys().copied().collect();
        for bb in basics {
            let row = &self.rows[&bb];
            let val = row
                .iter()
                .map(|(v, a)| *a * self.beta(*v))
                .fold(Rational::ZERO, |x, y| x + y);
            self.set_beta(bb, val);
        }
    }

    /// Restores feasibility (the "check" procedure of the general simplex).
    /// When no pivot can repair a violated row, that row is the Farkas
    /// certificate of infeasibility: the violated bound of its basic
    /// variable plus the bound pinning each of its non-basic variables.
    fn check(&mut self) -> Result<(), Conflict> {
        let max_iters = 10_000;
        for _ in 0..max_iters {
            // Find a basic variable violating one of its bounds (Bland's
            // rule: smallest id first, to guarantee termination).
            let violated = self.rows.keys().copied().find(|b| {
                let v = self.beta(*b);
                self.lower.get(b).is_some_and(|l| v < l.0)
                    || self.upper.get(b).is_some_and(|u| v > u.0)
            });
            let Some(b) = violated else {
                return Ok(());
            };
            let v = self.beta(b);
            let below = self.lower.get(&b).is_some_and(|l| v < l.0);
            let (target, why) = if below {
                self.lower[&b]
            } else {
                self.upper[&b]
            };
            // Rows are BTreeMaps, so candidates come in Bland's id order.
            let row = self.rows[&b].clone();
            let mut entering = None;
            for (&n, &a) in &row {
                let n_val = self.beta(n);
                let can_increase = self.upper.get(&n).is_none_or(|u| n_val < u.0);
                let can_decrease = self.lower.get(&n).is_none_or(|l| n_val > l.0);
                let ok = if below {
                    (a.is_positive() && can_increase) || (a.is_negative() && can_decrease)
                } else {
                    (a.is_positive() && can_decrease) || (a.is_negative() && can_increase)
                };
                if ok {
                    entering = Some(n);
                    break;
                }
            }
            let Some(n) = entering else {
                // Every non-basic variable of the row sits at the bound
                // that keeps `b` from moving towards `target`.
                let pinned = row.iter().map(|(n, a)| {
                    let at_upper = a.is_positive() == below;
                    self.bounds(at_upper)[n].1
                });
                return Err(std::iter::once(why).chain(pinned).collect());
            };
            self.pivot(b, n, target);
        }
        // Should not happen with Bland's rule; be conservative.
        Ok(())
    }

    fn model(&self, num_problem_vars: usize) -> BTreeMap<VarId, Rational> {
        (0..num_problem_vars).map(|v| (v, self.beta(v))).collect()
    }
}

/// One saved bound entry of the backtracking trail: the variable, which
/// bound was touched, and its previous value and reason (`None` = was
/// unbounded).
#[derive(Debug, Clone)]
struct BoundUndo {
    var: VarId,
    upper: bool,
    old: Option<Bound>,
}

/// An incremental LIA solver whose simplex tableau stays *warm* across
/// the theory checks of one DPLL(T) query.
///
/// The from-scratch [`LiaSolver`] rebuilds a tableau (and re-substitutes
/// every slack row) per check and clones the whole constraint vector per
/// branch-and-bound node. This solver instead keeps the tableau alive:
///
/// * **slack rows persist** — each distinct linear combination gets one
///   slack variable, registered on first use and reused by every later
///   check (both polarities of a comparison atom share the combination,
///   so one slack serves the atom for good);
/// * **bounds are transient** — every check (and every branch-and-bound
///   node) runs inside a push/pop frame over variable bounds. Popping
///   restores the saved bound entries and touches nothing else: rows are
///   basis-invariant representations of the same linear subspace, and a
///   non-basic β that satisfied the tighter bounds still satisfies the
///   restored looser ones, so `check()` only ever needs to repair *basic*
///   variables — exactly what it does lazily anyway;
/// * **branch and bound reuses the parent tableau** — a branch asserts
///   one bound on the fractional variable inside a fresh frame and
///   recurses; no constraint cloning, no re-substitution.
///
/// A check truncated by the wall-clock deadline **poisons** the tableau:
/// the next check rebuilds from scratch (the incremental analogue of the
/// "deadline-`Unknown`s are never cached" rule — a truncated search's
/// verdict reflects the budget, and its tableau state is not trusted
/// either).
#[derive(Debug, Clone)]
pub struct IncrementalLia {
    num_problem_vars: usize,
    simplex: Simplex,
    /// One slack variable per distinct linear combination.
    slacks: BTreeMap<BTreeMap<VarId, Rational>, VarId>,
    /// Undo trail of bound changes, unwound on pop.
    trail: Vec<BoundUndo>,
    /// Open frames: trail length at each push.
    frames: Vec<usize>,
    /// Maximum number of branch-and-bound nodes explored per check.
    pub branch_budget: usize,
    /// Wall-clock deadline, polled once per branch-and-bound node.
    /// Crossing it returns [`LiaResult::Unknown`] and poisons the tableau.
    pub deadline: Option<std::time::Instant>,
    poisoned: bool,
    /// Checks served since the last (re)build; the first check after a
    /// build is "cold", every later one is a warm start.
    checks_since_build: u64,
    warm_checks: u64,
    rebuilds: u64,
    /// Pivots spent by the cold first check after the last (re)build —
    /// the per-check cost a from-scratch solver would pay every time.
    cold_pivots: u64,
    pivots_saved: u64,
}

impl IncrementalLia {
    /// Creates a warm solver for problems over `num_problem_vars`
    /// arithmetic variables (ids `0..num_problem_vars`).
    pub fn new(num_problem_vars: usize) -> IncrementalLia {
        IncrementalLia {
            num_problem_vars,
            simplex: Simplex::new(num_problem_vars),
            slacks: BTreeMap::new(),
            trail: Vec::new(),
            frames: Vec::new(),
            branch_budget: 200,
            deadline: None,
            poisoned: false,
            checks_since_build: 0,
            warm_checks: 0,
            rebuilds: 0,
            cold_pivots: 0,
            pivots_saved: 0,
        }
    }

    /// Checks served by an already-built tableau (every check after the
    /// first since the last rebuild).
    pub fn warm_checks(&self) -> u64 {
        self.warm_checks
    }

    /// Times the tableau was rebuilt from scratch (after poisoning).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Estimated pivots saved by warm starts: for each warm check, the
    /// cold first check's pivot count minus the warm check's, clamped at
    /// zero. An estimate — the cold baseline is this query's own first
    /// solve, not a per-check from-scratch rerun.
    pub fn pivots_saved(&self) -> u64 {
        self.pivots_saved
    }

    /// True when the last check was truncated by the deadline and the
    /// next check will rebuild the tableau.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Marks the tableau as untrusted; the next check rebuilds it.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    fn rebuild(&mut self) {
        self.simplex = Simplex::new(self.num_problem_vars);
        self.slacks.clear();
        self.trail.clear();
        self.frames.clear();
        self.poisoned = false;
        self.checks_since_build = 0;
        self.rebuilds += 1;
    }

    fn push(&mut self) {
        self.frames.push(self.trail.len());
    }

    fn pop(&mut self) {
        let mark = self.frames.pop().expect("pop without matching push");
        while self.trail.len() > mark {
            let undo = self.trail.pop().unwrap();
            let map = self.simplex.bounds(undo.upper);
            match undo.old {
                Some(c) => {
                    map.insert(undo.var, c);
                }
                None => {
                    map.remove(&undo.var);
                }
            }
        }
    }

    /// Pops every frame opened after `depth` (defensive unwinding for
    /// early returns out of the branch-and-bound recursion).
    fn pop_to(&mut self, depth: usize) {
        while self.frames.len() > depth {
            self.pop();
        }
    }

    fn assert_bound(
        &mut self,
        v: VarId,
        c: Rational,
        upper: bool,
        why: usize,
    ) -> Result<(), Conflict> {
        let old = self.simplex.bounds(upper).get(&v).copied();
        self.trail.push(BoundUndo { var: v, upper, old });
        self.simplex.assert_bound(v, c, upper, why)
    }

    /// The slack variable standing for this linear combination,
    /// registering it (one row substitution, once ever) on first use.
    fn slack_for(&mut self, combo: &BTreeMap<VarId, Rational>) -> VarId {
        if let Some(&s) = self.slacks.get(combo) {
            return s;
        }
        let s = self.simplex.add_slack(combo);
        self.slacks.insert(combo.clone(), s);
        s
    }

    /// Checks a conjunction of constraints against the warm tableau.
    /// The tableau's *bounds* are restored before returning whatever the
    /// verdict; its rows, basis and assignment persist (that is the
    /// warmth). Sound for any sequence of checks because no bound
    /// outlives its check's frame.
    pub fn check(&mut self, constraints: &[Constraint]) -> LiaResult {
        if self.poisoned {
            self.rebuild();
        }
        if self.checks_since_build > 0 {
            self.warm_checks += 1;
        }
        self.checks_since_build += 1;
        let pivots_before = self.simplex.pivots;
        let depth = self.frames.len();
        self.push();
        let mut result = self.check_in_frame(constraints);
        self.pop_to(depth);
        if let LiaResult::Unsat(core) = &mut result {
            core.sort_unstable();
            core.dedup();
        }
        if matches!(result, LiaResult::Unknown) && self.deadline_passed() {
            // Deadline-truncated: the verdict reflects the budget, and
            // the tableau is not trusted either (the incremental
            // extension of "deadline-Unknowns are never cached").
            self.poisoned = true;
        }
        let spent = self.simplex.pivots - pivots_before;
        if self.checks_since_build == 1 {
            self.cold_pivots = spent;
        } else {
            self.pivots_saved += self.cold_pivots.saturating_sub(spent);
        }
        result
    }

    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| std::time::Instant::now() > d)
    }

    /// Asserts every constraint as a bound reasoned by its index, then
    /// searches; conflicts are explained by those indices.
    fn check_in_frame(&mut self, constraints: &[Constraint]) -> LiaResult {
        let empty = BTreeMap::new();
        if let Some(i) = constraints
            .iter()
            .position(|c| c.expr.is_constant() && !c.holds(&empty))
        {
            return LiaResult::Unsat(vec![i]);
        }
        for (i, c) in constraints.iter().enumerate() {
            if c.expr.is_constant() {
                continue;
            }
            let s = self.slack_for(&c.expr.coeffs);
            // expr ⋈ 0  ⟺  Σ aᵢxᵢ ⋈ -constant
            let bound = -c.expr.constant;
            let asserted = match c.rel {
                Rel::Le => self.assert_bound(s, bound, true, i),
                Rel::Ge => self.assert_bound(s, bound, false, i),
                Rel::Eq => self
                    .assert_bound(s, bound, true, i)
                    .and_then(|()| self.assert_bound(s, bound, false, i)),
            };
            if let Err(core) = asserted {
                return LiaResult::Unsat(core);
            }
        }
        let mut budget = self.branch_budget;
        let result = self.solve_rec(&mut budget);
        if let LiaResult::Sat(model) = &result {
            debug_assert!(
                constraints.iter().all(|c| c.holds(model)),
                "warm tableau produced a non-model"
            );
        }
        result
    }

    /// Feasibility plus branch-and-bound over the current bound frame. A
    /// node's conflict is the union of both branches' conflicts minus the
    /// node's own branch bounds, whose reason id is unique on the path.
    fn solve_rec(&mut self, budget: &mut usize) -> LiaResult {
        if self.deadline_passed() {
            return LiaResult::Unknown;
        }
        if let Err(core) = self.simplex.check() {
            return LiaResult::Unsat(core);
        }
        let model = self.simplex.model(self.num_problem_vars);
        let fractional = model.iter().find(|(_, v)| !v.is_integer());
        let Some((&v, &val)) = fractional else {
            return LiaResult::Sat(model);
        };
        if *budget == 0 {
            return LiaResult::Unknown;
        }
        *budget -= 1;
        let branch = usize::MAX - self.frames.len();
        let mut core = Vec::new();
        // Left branch v ≤ floor(val), then right branch v ≥ ceil(val), each
        // on the same tableau.
        for (upper, bound) in [(true, val.floor()), (false, val.ceil())] {
            self.push();
            let result = match self.assert_bound(v, Rational::new(bound, 1), upper, branch) {
                Ok(()) => self.solve_rec(budget),
                Err(clash) => LiaResult::Unsat(clash),
            };
            self.pop();
            match result {
                LiaResult::Unsat(c) => core.extend(c.into_iter().filter(|&r| r != branch)),
                found => return found,
            }
        }
        LiaResult::Unsat(core)
    }
}

/// Decides satisfiability of a conjunction of linear constraints over the
/// integers.
#[derive(Debug, Clone, Default)]
pub struct LiaSolver {
    /// Maximum number of branch-and-bound nodes explored before giving up.
    pub branch_budget: usize,
    /// Wall-clock deadline: checked once per branch-and-bound node (each
    /// node is one simplex solve, the natural polling granularity), so a
    /// single `check` call can overshoot a synthesis budget by at most
    /// one simplex solve instead of a whole 200-node search tree.
    /// Crossing it returns [`LiaResult::Unknown`]; the caller must treat
    /// that as budget exhaustion (and never cache it as a verdict).
    pub deadline: Option<std::time::Instant>,
}

impl LiaSolver {
    /// Creates a solver with the default branch-and-bound budget.
    pub fn new() -> LiaSolver {
        LiaSolver {
            branch_budget: 200,
            deadline: None,
        }
    }

    /// Checks a conjunction of constraints; `num_vars` is the number of
    /// problem variables (ids `0..num_vars`).
    ///
    /// One-shot: builds a fresh [`IncrementalLia`] and discards it. The
    /// from-scratch baseline the `without_incremental_lia` ablation runs
    /// against, and the entry point for callers without a warm tableau.
    pub fn check(&self, num_vars: usize, constraints: &[Constraint]) -> LiaResult {
        let mut inc = IncrementalLia::new(num_vars);
        inc.branch_budget = self.branch_budget;
        inc.deadline = self.deadline;
        inc.check(constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: VarId) -> LinExpr {
        LinExpr::variable(v)
    }

    fn num(n: i64) -> LinExpr {
        LinExpr::constant(Rational::from_int(n))
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let solver = LiaSolver::new();
        assert!(matches!(solver.check(0, &[]), LiaResult::Sat(_)));
        let c = Constraint::le(num(1), num(0));
        assert!(matches!(solver.check(0, &[c]), LiaResult::Unsat(_)));
    }

    #[test]
    fn simple_bounds() {
        let solver = LiaSolver::new();
        // x >= 1 ∧ x <= 3
        let cs = vec![
            Constraint::ge(var(0), num(1)),
            Constraint::le(var(0), num(3)),
        ];
        match solver.check(1, &cs) {
            LiaResult::Sat(m) => {
                let x = m[&0];
                assert!(x >= Rational::from_int(1) && x <= Rational::from_int(3));
                assert!(x.is_integer());
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // x >= 4 ∧ x <= 3 is unsat
        let cs = vec![
            Constraint::ge(var(0), num(4)),
            Constraint::le(var(0), num(3)),
        ];
        assert!(matches!(solver.check(1, &cs), LiaResult::Unsat(_)));
    }

    #[test]
    fn combination_of_constraints() {
        let solver = LiaSolver::new();
        // x + y <= 5 ∧ x >= 3 ∧ y >= 3 is unsat
        let cs = vec![
            Constraint::le(var(0).plus(&var(1)), num(5)),
            Constraint::ge(var(0), num(3)),
            Constraint::ge(var(1), num(3)),
        ];
        assert!(matches!(solver.check(2, &cs), LiaResult::Unsat(_)));
        // x + y <= 5 ∧ x >= 3 ∧ y >= 2 is sat
        let cs = vec![
            Constraint::le(var(0).plus(&var(1)), num(5)),
            Constraint::ge(var(0), num(3)),
            Constraint::ge(var(1), num(2)),
        ];
        assert!(matches!(solver.check(2, &cs), LiaResult::Sat(_)));
    }

    #[test]
    fn equalities_chain() {
        let solver = LiaSolver::new();
        // len = n ∧ n = 0 ∧ len >= 1  — the replicate-style contradiction
        let cs = vec![
            Constraint::eq(var(0), var(1)),
            Constraint::eq(var(1), num(0)),
            Constraint::ge(var(0), num(1)),
        ];
        assert!(matches!(solver.check(2, &cs), LiaResult::Unsat(_)));
    }

    #[test]
    fn integrality_matters() {
        let solver = LiaSolver::new();
        // 2x = 1 has a rational solution but no integer one.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(1))];
        assert!(matches!(solver.check(1, &cs), LiaResult::Unsat(_)));
        // 2x = 4 is fine.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(4))];
        assert!(matches!(solver.check(1, &cs), LiaResult::Sat(_)));
    }

    #[test]
    fn strict_inequalities_over_integers() {
        let solver = LiaSolver::new();
        // x < y ∧ y < x + 2  ⇒  y = x + 1 (sat)
        let cs = vec![
            Constraint::lt_int(var(0), var(1)),
            Constraint::lt_int(var(1), var(0).plus(&num(2))),
        ];
        match solver.check(2, &cs) {
            LiaResult::Sat(m) => {
                assert_eq!(m[&1], m[&0] + Rational::ONE);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // x < y ∧ y < x + 1 is unsat over integers.
        let cs = vec![
            Constraint::lt_int(var(0), var(1)),
            Constraint::lt_int(var(1), var(0).plus(&num(1))),
        ];
        assert!(matches!(solver.check(2, &cs), LiaResult::Unsat(_)));
    }

    #[test]
    fn unbounded_problems_are_sat() {
        let solver = LiaSolver::new();
        let cs = vec![Constraint::ge(var(0).minus(&var(1)), num(10))];
        assert!(matches!(solver.check(2, &cs), LiaResult::Sat(_)));
    }

    #[test]
    fn larger_system_with_pivoting() {
        let solver = LiaSolver::new();
        // x + y + z = 10, x - y >= 2, z >= 3, y >= 1  → sat
        let cs = vec![
            Constraint::eq(var(0).plus(&var(1)).plus(&var(2)), num(10)),
            Constraint::ge(var(0).minus(&var(1)), num(2)),
            Constraint::ge(var(2), num(3)),
            Constraint::ge(var(1), num(1)),
        ];
        match solver.check(3, &cs) {
            LiaResult::Sat(m) => {
                for c in &cs {
                    assert!(c.holds(&m), "violated {c:?} by {m:?}");
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Tighten until unsat: x + y + z = 10, x - y >= 2, z >= 6, y >= 2 → x>=4, sum >= 12
        let cs = vec![
            Constraint::eq(var(0).plus(&var(1)).plus(&var(2)), num(10)),
            Constraint::ge(var(0).minus(&var(1)), num(2)),
            Constraint::ge(var(2), num(6)),
            Constraint::ge(var(1), num(2)),
        ];
        assert!(matches!(solver.check(3, &cs), LiaResult::Unsat(_)));
    }

    #[test]
    fn warm_tableau_answers_a_sequence_of_checks() {
        // The DPLL(T) usage pattern: many near-identical checks over the
        // same atoms against one tableau, verdicts matching from-scratch.
        let mut inc = IncrementalLia::new(2);
        let scratch = LiaSolver::new();
        let families: Vec<Vec<Constraint>> = vec![
            vec![
                Constraint::le(var(0).plus(&var(1)), num(5)),
                Constraint::ge(var(0), num(3)),
                Constraint::ge(var(1), num(3)),
            ],
            vec![
                Constraint::le(var(0).plus(&var(1)), num(5)),
                Constraint::ge(var(0), num(3)),
                Constraint::ge(var(1), num(2)),
            ],
            vec![
                Constraint::le(var(0).plus(&var(1)), num(5)),
                Constraint::ge(var(0), num(6)),
            ],
            vec![
                Constraint::eq(var(0), var(1)),
                Constraint::ge(var(0), num(1)),
                Constraint::le(var(1), num(0)),
            ],
            vec![Constraint::ge(var(0).minus(&var(1)), num(10))],
        ];
        for cs in &families {
            let warm = inc.check(cs);
            let cold = scratch.check(2, cs);
            assert_eq!(
                matches!(warm, LiaResult::Unsat(_)),
                matches!(cold, LiaResult::Unsat(_)),
                "verdict divergence on {cs:?}: warm {warm:?} vs cold {cold:?}"
            );
            if let LiaResult::Sat(m) = warm {
                assert!(cs.iter().all(|c| {
                    let v = c.expr.eval(&m);
                    match c.rel {
                        Rel::Le => v <= Rational::ZERO,
                        Rel::Eq => v.is_zero(),
                        Rel::Ge => v >= Rational::ZERO,
                    }
                }));
            }
        }
        assert_eq!(inc.warm_checks(), families.len() as u64 - 1);
        assert_eq!(inc.rebuilds(), 0);
    }

    #[test]
    fn popped_bounds_never_leak_into_the_next_check() {
        let mut inc = IncrementalLia::new(1);
        // x ≤ 3 is sat…
        assert!(matches!(
            inc.check(&[Constraint::le(var(0), num(3))]),
            LiaResult::Sat(_)
        ));
        // …and must not constrain the next check: x ≥ 4 alone is sat.
        assert!(matches!(
            inc.check(&[Constraint::ge(var(0), num(4))]),
            LiaResult::Sat(_)
        ));
        // An unsat check's bounds must not leak either.
        assert_eq!(
            inc.check(&[
                Constraint::ge(var(0), num(4)),
                Constraint::le(var(0), num(3)),
            ]),
            LiaResult::Unsat(vec![0, 1])
        );
        assert!(matches!(
            inc.check(&[Constraint::ge(var(0), num(4))]),
            LiaResult::Sat(_)
        ));
    }

    #[test]
    fn warm_branch_and_bound_restores_branch_bounds() {
        let mut inc = IncrementalLia::new(1);
        // 2x = 1: rational-feasible, integer-infeasible — both branches
        // of the branch-and-bound run and both must unwind cleanly.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(1))];
        assert!(matches!(inc.check(&cs), LiaResult::Unsat(_)));
        // The tableau is still usable and unconstrained afterwards.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(4))];
        match inc.check(&cs) {
            LiaResult::Sat(m) => assert_eq!(m[&0], Rational::from_int(2)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn core_of(result: LiaResult) -> Vec<usize> {
        match result {
            LiaResult::Unsat(core) => core,
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn bound_clash_is_explained_by_its_two_sources() {
        let cs = vec![
            Constraint::ge(var(0), num(4)),
            Constraint::ge(var(1), num(0)),
            Constraint::le(var(0), num(3)),
        ];
        assert_eq!(core_of(LiaSolver::new().check(2, &cs)), vec![0, 2]);
    }

    #[test]
    fn row_conflict_leaves_irrelevant_constraints_out() {
        // x + y ≤ 5 ∧ x ≥ 3 ∧ y ≥ 3 is the conflict; the z/w constraints
        // are satisfiable bystanders that the Farkas row never touches.
        let cs = vec![
            Constraint::le(var(0).plus(&var(1)), num(5)),
            Constraint::ge(var(2), num(7)),
            Constraint::ge(var(0), num(3)),
            Constraint::le(var(2).minus(&var(3)), num(2)),
            Constraint::ge(var(1), num(3)),
        ];
        assert_eq!(core_of(LiaSolver::new().check(4, &cs)), vec![0, 2, 4]);
    }

    #[test]
    fn integrality_conflict_drops_branch_bounds() {
        // 2x = 1 is refuted only by branch and bound (x ≤ 0 and x ≥ 1 both
        // fail); the core is the union of both branches minus the branch
        // bounds, i.e. the equation alone.
        let cs = vec![
            Constraint::ge(var(1), num(0)),
            Constraint::eq(var(0).scaled(Rational::from_int(2)), num(1)),
        ];
        assert_eq!(core_of(LiaSolver::new().check(2, &cs)), vec![1]);
        let mut inc = IncrementalLia::new(2);
        assert_eq!(core_of(inc.check(&cs)), vec![1]);
    }

    #[test]
    fn random_unsat_cores_are_unsat_on_their_own() {
        // SplitMix64, so the systems are the same on every run.
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        // A small branch budget keeps the unbounded searches short; the
        // cores are re-checked with the default one.
        let fresh = LiaSolver {
            branch_budget: 30,
            deadline: None,
        };
        let mut unsat = 0;
        for _ in 0..400 {
            let cs: Vec<Constraint> = (0..2 + next(5))
                .map(|_| {
                    let mut expr = num(next(11) as i64 - 5);
                    for v in 0..3 {
                        expr = expr.plus(&var(v).scaled(Rational::from_int(next(7) as i64 - 3)));
                    }
                    let rel = [Rel::Le, Rel::Ge, Rel::Eq][next(3) as usize];
                    Constraint { expr, rel }
                })
                .collect();
            // The warm tableau checks a prefix first, so the full system
            // starts from a basis left by an earlier check.
            let mut warm = IncrementalLia::new(3);
            warm.branch_budget = fresh.branch_budget;
            warm.check(&cs[..1]);
            for result in [warm.check(&cs), fresh.check(3, &cs)] {
                let LiaResult::Unsat(core) = result else {
                    continue;
                };
                unsat += 1;
                assert!(core.windows(2).all(|w| w[0] < w[1]) && core.iter().all(|&i| i < cs.len()));
                let subset: Vec<Constraint> = core.iter().map(|&i| cs[i].clone()).collect();
                assert!(
                    matches!(LiaSolver::new().check(3, &subset), LiaResult::Unsat(_)),
                    "core {core:?} of {cs:?} is not unsat on its own"
                );
            }
        }
        assert!(unsat > 100, "too few unsat systems to test: {unsat}");
    }

    #[test]
    fn deadline_truncated_check_poisons_the_warm_tableau() {
        let mut inc = IncrementalLia::new(1);
        // Warm the tableau with a normal check.
        assert!(matches!(
            inc.check(&[Constraint::ge(var(0), num(1))]),
            LiaResult::Sat(_)
        ));
        assert!(!inc.is_poisoned());
        // A check that crosses the deadline must answer Unknown and mark
        // the tableau untrusted (the regression PR 5's "deadline-Unknowns
        // are never cached" rule extends to tableau state).
        inc.deadline = Some(std::time::Instant::now() - std::time::Duration::from_secs(1));
        assert_eq!(
            inc.check(&[Constraint::ge(var(0), num(1))]),
            LiaResult::Unknown
        );
        assert!(inc.is_poisoned());
        // With the deadline lifted, the next check rebuilds and answers
        // correctly — in both directions.
        inc.deadline = None;
        assert_eq!(
            inc.check(&[
                Constraint::ge(var(0), num(4)),
                Constraint::le(var(0), num(3)),
            ]),
            LiaResult::Unsat(vec![0, 1])
        );
        assert!(!inc.is_poisoned());
        assert_eq!(inc.rebuilds(), 1);
        assert!(matches!(
            inc.check(&[Constraint::le(var(0), num(0))]),
            LiaResult::Sat(_)
        ));
    }
}
