//! The component library of the Fig. 7 SyGuS generators: integer
//! comparisons and positional integer constants over a baseline
//! environment with the standard qualifiers. Table 1 goals declare their
//! components in their `.sq` specifications instead.

use synquid_logic::{Qualifier, Sort, Term};
use synquid_types::{BaseType, Environment, RType};

/// Adds the comparison components `leq`, `lt`, `neq`, `eq` over a sort
/// (integers or a type variable with a generic order).
pub fn add_comparison_components(env: &mut Environment, sort: Sort) {
    let scalar = || match &sort {
        Sort::Int => RType::int(),
        Sort::Var(a) => RType::tyvar(a.clone()),
        other => panic!("comparisons only over ordered sorts, got {other}"),
    };
    let x = || Term::var("x", sort.clone());
    let y = || Term::var("y", sort.clone());
    let make = |body: Term| {
        RType::fun_n(
            vec![("x".into(), scalar()), ("y".into(), scalar())],
            RType::refined(BaseType::Bool, Term::value_var(Sort::Bool).iff(body)),
        )
    };
    let suffix = match &sort {
        Sort::Int => "",
        _ => "g",
    };
    env.add_var(format!("leq{suffix}"), make(x().le(y())));
    env.add_var(format!("lt{suffix}"), make(x().lt(y())));
    env.add_var(format!("neq{suffix}"), make(x().neq(y())));
    env.add_var(format!("eq{suffix}"), make(x().eq(y())));
}

/// Adds integer constant components `c0 … cn` with types `{Int | ν = i}`
/// (used by the SyGuS-style benchmarks, which return positional indices).
pub fn add_int_constants(env: &mut Environment, up_to: i64) {
    for i in 0..=up_to {
        env.add_var(
            format!("c{i}"),
            RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(i))),
        );
    }
}

/// A baseline environment with the standard qualifiers `? ≤ ?`, `? ≠ ?`,
/// `? < ?` over integers and over a generic element sort.
pub fn base_environment() -> Environment {
    let mut env = Environment::new();
    env.add_qualifiers(Qualifier::standard(Sort::Int));
    env.add_qualifiers(Qualifier::standard(Sort::var("a")));
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_components_over_type_variables_get_a_suffix() {
        let mut env = base_environment();
        add_comparison_components(&mut env, Sort::var("a"));
        assert!(env.lookup("leqg").is_some());
        assert!(env.lookup("ltg").is_some());
    }

    #[test]
    fn int_constants_are_singletons() {
        let mut env = Environment::new();
        add_int_constants(&mut env, 3);
        assert!(env.lookup("c0").is_some());
        assert!(env.lookup("c3").is_some());
        assert!(env.lookup("c4").is_none());
    }
}
