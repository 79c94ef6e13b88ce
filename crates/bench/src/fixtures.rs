//! Solver-microbenchmark fixtures: real DPLL(T)/LIA/MUS workloads.
//!
//! Each fixture is a verification condition (or MUS-enumeration problem)
//! captured from an actual synthesis run via the structured event sink
//! (`smt_query` events record every query slower than 25 ms together
//! with its formulas) and transcribed into `Term` builders. The sources:
//!
//! * `take.sq` at bounds (3,1) — the goal whose phase split the PR 5
//!   manual profile measured;
//! * `insert_sorted.sq` under the default portfolio;
//! * `double.sq` under the default portfolio.
//!
//! The captured variable names (`__m2_Cons_1_1`, …) are shortened for
//! readability, which does not change solver behaviour: encoding is
//! structural and name-independent. Expected verdicts are semantic
//! (`Sat`/`Unsat` are pure functions of the formula), so the harness can
//! assert them on every iteration against a fresh solver.

use synquid_logic::{Sort, Term};

/// What kind of solver work a fixture exercises, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// A full `sat(antecedent ∧ ¬consequent)` validity query: SAT
    /// skeleton search plus LIA theory checks and their conflict cores.
    Query,
    /// MARCO MUS enumeration with the SMT solver as the subset oracle.
    Mus,
}

/// The problem a fixture poses to the solver.
pub enum Workload {
    /// Check `sat(antecedent ∧ ¬consequent)`.
    Query {
        /// Left-hand side of the entailment.
        antecedent: Term,
        /// Right-hand side of the entailment.
        consequent: Term,
    },
    /// Enumerate the MUSes of `background ∧ soft` (MARCO over the SMT
    /// oracle).
    Mus {
        /// The fixed unsatisfiable-making context.
        background: Term,
        /// The candidate atoms subsets are drawn from.
        soft: Vec<Term>,
    },
}

/// One transcribed workload.
pub struct Fixture {
    /// Stable fixture name (appears in `BENCH_solver.json`).
    pub name: &'static str,
    /// Which solver path it exercises.
    pub kind: WorkloadKind,
    /// Where it was captured from.
    pub source: &'static str,
    /// Builds the problem (fresh terms each call, so every benchmark
    /// iteration starts from an identical, unshared formula).
    pub build: fn() -> Workload,
    /// Expected verdict for queries: `true` = Unsat (valid entailment).
    /// For MUS fixtures: `true` = at least one MUS must be reported.
    pub expect_unsat: bool,
}

fn list() -> Sort {
    Sort::data("List", vec![Sort::var("a")])
}

fn ilist() -> Sort {
    Sort::data("IList", vec![])
}

fn len(t: Term) -> Term {
    Term::app("len", vec![t], Sort::Int)
}

fn ilen(t: Term) -> Term {
    Term::app("ilen", vec![t], Sort::Int)
}

fn elems(t: Term) -> Term {
    Term::app("elems", vec![t], Sort::set(Sort::var("a")))
}

fn ielems(t: Term) -> Term {
    Term::app("ielems", vec![t], Sort::set(Sort::Int))
}

fn lvar(name: &str) -> Term {
    Term::var(name, list())
}

fn ivar(name: &str) -> Term {
    Term::var(name, Sort::Int)
}

fn avar(name: &str) -> Term {
    Term::var(name, Sort::var("a"))
}

fn single(elem: Term) -> Term {
    Term::singleton(Sort::var("a"), elem)
}

fn isingle(elem: Term) -> Term {
    Term::singleton(Sort::Int, elem)
}

/// `take.sq` (3,1): the liquid-abduction guard query for the recursive
/// branch — LIA-heavy with a few measure atoms; the canonical "first
/// check" workload of the DPLL(T) main loop. Captured verdict: Sat.
fn take_guard_abduction() -> Workload {
    let (xs, xs1) = (lvar("xs"), lvar("xs1"));
    let (n, m, zero, nu) = (
        ivar("n"),
        ivar("m"),
        ivar("zero"),
        Term::value_var(Sort::Int),
    );
    let a = Term::conjunction([
        len(xs.clone()).eq(len(xs1.clone()).plus(Term::int(1))),
        elems(xs.clone()).eq(elems(xs1.clone()).union(single(avar("x0")))),
        len(xs.clone()).ge(n.clone()),
        n.clone().ge(Term::int(0)),
        m.clone().eq(n.clone().plus(Term::int(1))),
        len(xs).ge(Term::int(0)),
        len(xs1).ge(Term::int(0)),
        nu.clone().eq(m.minus(Term::int(1))),
        zero.clone().le(n.clone()),
        Term::int(0).le(zero.clone()),
        Term::int(0).le(n.clone()),
        zero.clone().neq(n.clone()),
        zero.clone().neq(Term::int(0)),
        n.clone().neq(zero.clone()),
        n.clone().neq(Term::int(0)),
        Term::int(0).neq(zero.clone()),
        Term::int(0).neq(n.clone()),
        zero.clone().lt(n.clone()),
        Term::int(0).lt(zero),
        nu.clone()
            .ge(Term::int(0))
            .and(Term::int(0).le(nu.clone()).and(nu.lt(n)))
            .not(),
    ]);
    Workload::Query {
        antecedent: a,
        consequent: Term::ff(),
    }
}

/// `take.sq` (3,1): the measure-heavy subtyping VC for a doubly nested
/// `Cons` candidate — deep set reasoning over `elems`, the encoding- and
/// conflict-heavy workload. Captured verdict: Sat (subtyping fails).
fn take_cons_subtype() -> Workload {
    let (xs, xs1) = (lvar("xs"), lvar("xs1"));
    let (c11, c10, c018, nil) = (lvar("c11"), lvar("c10"), lvar("c018"), lvar("Nil"));
    let (n, t6) = (ivar("n"), ivar("t6"));
    let nu = Term::value_var(list());
    let a = Term::conjunction([
        len(xs.clone()).eq(len(xs1.clone()).plus(Term::int(1))),
        elems(xs.clone()).eq(elems(xs1.clone()).union(single(avar("x0")))),
        Term::int(0).lt(n.clone()),
        len(xs.clone()).ge(n.clone()),
        n.clone().ge(Term::int(0)),
        t6.clone().eq(n.minus(Term::int(1))),
        len(c11.clone()).eq(len(c10.clone()).plus(Term::int(1))),
        elems(c11.clone()).eq(elems(c10.clone()).union(single(avar("c00")))),
        elems(c10.clone()).eq(elems(nil.clone())),
        len(c10.clone()).eq(len(nil.clone())),
        len(c10.clone()).eq(Term::int(0)),
        elems(c10.clone()).eq(Term::empty_set(Sort::var("a"))),
        len(c018.clone()).eq(len(c10.clone()).plus(Term::int(1))),
        elems(c018.clone()).eq(elems(c10.clone()).union(single(avar("xs1e")))),
        len(xs).ge(Term::int(0)),
        len(xs1).ge(Term::int(0)),
        len(c11.clone()).ge(Term::int(0)),
        len(c10).ge(Term::int(0)),
        len(nil).ge(Term::int(0)),
        len(c018.clone()).ge(Term::int(0)),
        len(nu.clone()).ge(Term::int(0)),
        len(nu.clone()).eq(len(c11.clone()).plus(Term::int(1))),
        elems(nu.clone()).eq(elems(c11).union(single(avar("c018e")))),
    ]);
    Workload::Query {
        antecedent: a,
        consequent: len(nu).ge(t6),
    }
}

/// `take.sq` (3,1): the termination-bound VC whose path condition is
/// LIA-contradictory (`zero < n ∧ n ≤ 0 ∧ 0 < zero`) — the conflict
/// workload: DPLL(T) must find and explain the conflict. Captured
/// verdict: Unsat.
fn take_rec_bound() -> Workload {
    let (c12, c10, nil) = (lvar("c12"), lvar("c10"), lvar("Nil"));
    let (n, t6, c05, zero) = (ivar("n"), ivar("t6"), ivar("c05"), ivar("zero"));
    let nu = Term::value_var(list());
    let a = Term::conjunction([
        Term::int(0).lt(n.clone()),
        t6.clone().eq(n.clone().minus(Term::int(1))),
        n.clone().ge(Term::int(0)),
        len(c12.clone()).eq(len(c10.clone()).plus(Term::int(1))),
        elems(c12.clone()).eq(elems(c10.clone()).union(single(avar("ne")))),
        elems(c10.clone()).eq(elems(nil.clone())),
        len(c10.clone()).eq(len(nil.clone())),
        len(c10.clone()).eq(Term::int(0)),
        elems(c10.clone()).eq(Term::empty_set(Sort::var("a"))),
        c05.clone().eq(Term::int(1).minus(Term::int(1))),
        len(c12.clone()).ge(Term::int(0)),
        len(c10).ge(Term::int(0)),
        len(nil).ge(Term::int(0)),
        len(nu.clone()).ge(Term::int(0)),
        len(nu.clone()).eq(len(c12.clone()).plus(Term::int(1))),
        elems(nu.clone()).eq(elems(c12).union(single(avar("c05e")))),
        zero.clone().le(n.clone()),
        n.le(Term::int(0)),
        zero.clone().lt(ivar("n")),
        Term::int(0).lt(zero),
        len(nu).ge(t6).not(),
    ]);
    Workload::Query {
        antecedent: a,
        consequent: Term::ff(),
    }
}

/// `insert_sorted.sq`: the round-trip termination check for the
/// recursive call in the `ICons` branch — integer-set reasoning
/// (`ielems`) with a contradictory `zero` valuation. Captured verdict:
/// Unsat.
fn insert_round_trip() -> Workload {
    let (xs, xs1, c10, inil) = (
        Term::var("xs", ilist()),
        Term::var("xs1", ilist()),
        Term::var("c10", ilist()),
        Term::var("INil", ilist()),
    );
    let (x, x0, zero) = (ivar("x"), ivar("x0"), ivar("zero"));
    let nu = Term::value_var(ilist());
    let a = Term::conjunction([
        ilen(xs.clone()).eq(ilen(xs1.clone()).plus(Term::int(1))),
        ielems(xs.clone()).eq(ielems(xs1.clone()).union(isingle(x0.clone()))),
        x.clone().le(x0.clone()).and(x.clone().neq(x0)),
        ielems(c10.clone()).eq(ielems(inil.clone())),
        ilen(c10.clone()).eq(ilen(inil.clone())),
        ilen(c10.clone()).eq(Term::int(0)),
        ielems(c10.clone()).eq(Term::empty_set(Sort::Int)),
        ilen(xs.clone()).ge(Term::int(0)),
        ilen(xs1).ge(Term::int(0)),
        ilen(c10.clone()).ge(Term::int(0)),
        ilen(inil).ge(Term::int(0)),
        ilen(nu.clone()).ge(Term::int(0)),
        ilen(nu.clone()).eq(ilen(c10.clone()).plus(Term::int(1))),
        ielems(nu.clone()).eq(ielems(c10).union(isingle(x))),
        zero.clone().le(Term::int(0)),
        Term::int(0).le(zero.clone()),
        zero.lt(Term::int(0)),
        Term::int(0)
            .le(ilen(nu.clone()))
            .and(ilen(nu).lt(ilen(xs)))
            .not(),
    ]);
    Workload::Query {
        antecedent: a,
        consequent: Term::ff(),
    }
}

/// `double.sq`: the MUSFIX strengthening problem for the `Cons` branch —
/// which candidate qualifier atoms make the violated VC valid? The
/// background is the branch VC with its conclusion negated; the soft
/// atoms are the abduction candidates over `n`. At least one MUS exists
/// (`n ≤ 0` alone), so the harness asserts non-emptiness.
fn double_branch_mus() -> Workload {
    let nu = Term::value_var(list());
    let n = ivar("n");
    let background = len(nu.clone())
        .eq(Term::int(0))
        .and(len(nu).eq(n.clone().plus(n.clone())).not())
        .and(Term::int(0).le(n.clone()));
    let soft = vec![
        n.clone().le(Term::int(0)),
        n.clone().neq(Term::int(0)),
        Term::int(0).le(n.clone()),
        Term::int(0).lt(n),
    ];
    Workload::Mus { background, soft }
}

/// `take.sq` (3,1): the MUSFIX strengthening problem for the `Nil`
/// branch — the MARCO workload the shared-encoding MUS oracle
/// targets. The background is the branch VC (measure context included)
/// with its conclusion negated; the soft atoms are the liquid-abduction
/// candidate qualifiers over `n`, `m`, and `len xs`, most of them
/// irrelevant — so the oracle must grow/shrink through many subset
/// checks against the same conjunction. `{n ≤ 0}` is a MUS (with the
/// background's `0 ≤ n` it forces `n = 0`, contradicting
/// `¬(len ν = n)`), so the harness asserts non-emptiness.
fn take_nil_guard_mus() -> Workload {
    let (xs, xs1) = (lvar("xs"), lvar("xs1"));
    let (n, m) = (ivar("n"), ivar("m"));
    let nu = Term::value_var(list());
    let background = Term::conjunction([
        len(xs.clone()).eq(len(xs1.clone()).plus(Term::int(1))),
        elems(xs.clone()).eq(elems(xs1.clone()).union(single(avar("x0")))),
        len(xs.clone()).ge(n.clone()),
        len(xs.clone()).ge(Term::int(0)),
        len(xs1.clone()).ge(Term::int(0)),
        len(nu.clone()).ge(Term::int(0)),
        len(nu.clone()).eq(Term::int(0)),
        Term::int(0).le(n.clone()),
        len(nu).eq(n.clone()).not(),
    ]);
    let soft = vec![
        n.clone().le(Term::int(0)),
        n.clone().neq(Term::int(0)),
        Term::int(0).le(n.clone()),
        Term::int(0).lt(n.clone()),
        m.clone().le(n.clone()),
        n.clone().le(m.clone()),
        m.clone().neq(n.clone()),
        len(xs.clone()).le(n.clone()),
        n.lt(len(xs)),
        Term::int(0).lt(m),
    ];
    Workload::Mus { background, soft }
}

/// Every transcribed workload, in a stable report order.
pub fn all() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "take_guard_abduction",
            kind: WorkloadKind::Query,
            source: "take.sq (3,1)",
            build: take_guard_abduction,
            expect_unsat: false,
        },
        Fixture {
            name: "take_cons_subtype",
            kind: WorkloadKind::Query,
            source: "take.sq (3,1)",
            build: take_cons_subtype,
            expect_unsat: false,
        },
        Fixture {
            name: "take_rec_bound",
            kind: WorkloadKind::Query,
            source: "take.sq (3,1)",
            build: take_rec_bound,
            expect_unsat: true,
        },
        Fixture {
            name: "insert_round_trip",
            kind: WorkloadKind::Query,
            source: "insert_sorted.sq",
            build: insert_round_trip,
            expect_unsat: true,
        },
        Fixture {
            name: "double_branch_mus",
            kind: WorkloadKind::Mus,
            source: "double.sq",
            build: double_branch_mus,
            expect_unsat: true,
        },
        Fixture {
            name: "take_nil_guard_mus",
            kind: WorkloadKind::Mus,
            source: "take.sq (3,1)",
            build: take_nil_guard_mus,
            expect_unsat: true,
        },
    ]
}
