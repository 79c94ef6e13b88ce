//! The Table 1 rows and their `.sq` specifications: every transcribed row
//! loads exactly its own goal, every spec under `specs/table1/` belongs
//! to a row, and the specs state what the paper's benchmarks need (the
//! right datatypes, invariants and auxiliary components).

use std::collections::BTreeSet;
use synquid_core::Goal;
use synquid_lang::spec::corpus_dir;
use synquid_lang::{table1, transcribed};
use synquid_types::{BaseType, Datatype, RType};

fn row_goal(group: &str, name: &str) -> Goal {
    let bench = table1()
        .into_iter()
        .find(|b| b.group == group && b.name == name)
        .unwrap_or_else(|| panic!("unknown Table 1 row {group}/{name}"));
    bench
        .load_goal()
        .unwrap_or_else(|| panic!("{group}/{name} is not transcribed"))
        .unwrap_or_else(|e| panic!("{group}/{name}: {e}"))
}

fn datatype(goal: &Goal, name: &str) -> Datatype {
    goal.env
        .datatype(name)
        .unwrap_or_else(|| panic!("{}: no datatype {name}", goal.name))
        .clone()
}

/// The element type of a datatype-typed argument (`SList {a | x < ν}`
/// gives `{a | x < ν}`).
fn element_type(ty: &RType) -> RType {
    match ty.base_type() {
        Some(BaseType::Data(_, params)) => params[0].clone(),
        other => panic!("expected a datatype argument, got {other:?}"),
    }
}

#[test]
fn every_transcribed_row_loads_exactly_its_goal() {
    let dir = corpus_dir().expect("specs/ directory");
    let rows = transcribed();
    assert_eq!(rows.len(), 33);
    let mut specs = BTreeSet::new();
    let mut goals = BTreeSet::new();
    for bench in &rows {
        let spec = bench.spec.expect("transcribed");
        assert!(specs.insert(spec), "{spec} is shared by two rows");
        let out = synquid_lang::spec::load_file(dir.join(spec))
            .unwrap_or_else(|e| panic!("specs/{spec} failed to load:\n{e}"));
        assert_eq!(out.goals.len(), 1, "specs/{spec} must declare one goal");
        assert!(goals.insert(out.goals[0].name.clone()));
        // Each spec opens by naming the row it transcribes.
        let header = format!("-- Table 1, {} / \"{}\"", bench.group, bench.name);
        let text = std::fs::read_to_string(dir.join(spec)).unwrap();
        assert!(
            text.starts_with(&header),
            "specs/{spec} does not open with `{header}`"
        );
    }
}

#[test]
fn every_table1_spec_is_referenced_by_a_row() {
    let dir = corpus_dir().expect("specs/ directory").join("table1");
    let referenced: BTreeSet<&str> = table1().iter().filter_map(|b| b.spec).collect();
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("specs/table1 exists") {
        let file = entry.unwrap().file_name().into_string().unwrap();
        assert!(file.ends_with(".sq"), "stray file specs/table1/{file}");
        let spec = format!("table1/{file}");
        assert!(
            referenced.contains(spec.as_str()),
            "specs/{spec} is not referenced by any Table 1 row"
        );
        count += 1;
    }
    assert_eq!(count, 16);
}

#[test]
fn every_transcribed_goal_has_a_refined_result() {
    for bench in transcribed() {
        let goal = bench.load_goal().unwrap().unwrap();
        let (args, ret) = goal.schema.ty.uncurry();
        assert!(!args.is_empty(), "{} has no arguments", goal.name);
        assert!(ret.is_scalar(), "{} has a non-scalar result", goal.name);
        assert!(
            !ret.refinement().is_true(),
            "{} has a trivial goal",
            goal.name
        );
    }
}

#[test]
fn list_goals_build_well_formed_schemas() {
    for name in [
        "is member",
        "take first n elements",
        "delete value",
        "map",
        "insert at end",
        "reverse",
    ] {
        let goal = row_goal("List", name);
        assert!(!goal.name.is_empty());
        assert!(
            goal.schema.ty.is_function(),
            "{} should be a function goal",
            goal.name
        );
        let (args, ret) = goal.schema.ty.uncurry();
        assert!(!args.is_empty());
        assert!(ret.is_scalar());
    }
}

#[test]
fn map_is_polymorphic_in_two_variables() {
    let goal = row_goal("List", "map");
    assert_eq!(goal.schema.type_vars, ["a", "b"]);
    let (args, _) = goal.schema.ty.uncurry();
    assert!(
        args[0].1.is_function(),
        "first argument of map is higher-order"
    );
}

#[test]
fn reverse_has_the_snoc_component() {
    assert!(row_goal("List", "reverse").env.lookup("snoc").is_some());
}

#[test]
fn member_goal_environment_has_generic_equality() {
    let goal = row_goal("List", "is member");
    assert!(goal.env.lookup("eqg").is_some());
    assert!(goal.env.lookup("true").is_some());
}

#[test]
fn unique_list_tail_excludes_the_head() {
    let goal = row_goal("Unique list", "insert");
    let ulist = datatype(&goal, "UList");
    let (args, _) = ulist.constructor("UCons").unwrap().schema.ty.uncurry();
    assert!(args[1].1.refinement().to_string().contains("in"));
}

#[test]
fn remove_duplicates_provides_a_membership_component() {
    let goal = row_goal("Unique list", "remove duplicates");
    assert!(goal.env.lookup("umember").is_some());
    assert!(goal.env.datatype("List").is_some());
    assert!(goal.env.datatype("UList").is_some());
}

#[test]
fn unique_and_strict_goals_are_well_formed() {
    for (group, name) in [
        ("Unique list", "insert"),
        ("Unique list", "delete"),
        ("Unique list", "remove duplicates"),
        ("Strictly sorted list", "insert"),
        ("Strictly sorted list", "delete"),
    ] {
        let goal = row_goal(group, name);
        assert!(goal.schema.ty.is_function());
        let (_, ret) = goal.schema.ty.uncurry();
        assert!(ret.is_scalar());
        assert!(
            !ret.refinement().is_true(),
            "{} has a trivial goal",
            goal.name
        );
    }
}

#[test]
fn strict_goals_use_the_slist_measures() {
    let goal = row_goal("Strictly sorted list", "insert");
    let (_, ret) = goal.schema.ty.uncurry();
    assert!(ret.refinement().to_string().contains("selems"));
}

#[test]
fn strict_list_tail_elements_exceed_the_head() {
    let goal = row_goal("Strictly sorted list", "insert");
    let slist = datatype(&goal, "SList");
    let (args, _) = slist.constructor("SCons").unwrap().schema.ty.uncurry();
    assert!(element_type(&args[1].1)
        .refinement()
        .to_string()
        .contains('<'));
}

#[test]
fn merge_takes_two_sorted_lists() {
    let goal = row_goal("Sorting", "merge");
    let (args, ret) = goal.schema.ty.uncurry();
    assert_eq!(args.len(), 2);
    assert!(ret.refinement().to_string().contains("ielems"));
}

#[test]
fn sorted_head_requires_a_non_empty_argument() {
    let goal = row_goal("Sorting", "extract minimum");
    let (args, _) = goal.schema.ty.uncurry();
    assert!(args[0].1.refinement().to_string().contains('>'));
}

#[test]
fn insertion_sort_has_the_sorted_insert_component() {
    let goal = row_goal("Sorting", "insertion sort");
    assert!(goal.env.lookup("insert").is_some());
    assert!(goal.env.datatype("IList").is_some());
}

#[test]
fn tree_has_scalar_leaf_and_ternary_node() {
    let tree = datatype(&row_goal("Tree", "is member"), "Tree");
    assert!(tree.constructor("Leaf").unwrap().is_scalar());
    assert_eq!(tree.constructor("TNode").unwrap().arity(), 3);
    assert_eq!(tree.termination().unwrap().name, "tsize");
}

#[test]
fn tree_goals_are_well_formed() {
    for name in ["is member", "node count", "preorder"] {
        let goal = row_goal("Tree", name);
        assert!(goal.schema.ty.is_function());
        assert!(goal.env.datatype("Tree").is_some());
    }
}

#[test]
fn tree_count_has_arithmetic_components() {
    let goal = row_goal("Tree", "node count");
    assert!(goal.env.lookup("plus").is_some());
    assert!(goal.env.lookup("one").is_some());
}

#[test]
fn preorder_bridges_trees_and_lists() {
    let goal = row_goal("Tree", "preorder");
    assert!(goal.env.datatype("Tree").is_some());
    assert!(goal.env.datatype("List").is_some());
    assert!(goal.env.lookup("append").is_some());
    let (_, ret) = goal.schema.ty.uncurry();
    assert!(ret.refinement().to_string().contains("telems"));
}

#[test]
fn heap_goals_are_well_formed() {
    for name in [
        "is member",
        "1-element constructor",
        "2-element constructor",
        "insert",
    ] {
        let goal = row_goal("Binary Heap", name);
        assert!(goal.schema.ty.is_function());
        assert!(goal.env.datatype("Heap").is_some());
        let (_, ret) = goal.schema.ty.uncurry();
        assert!(!ret.refinement().is_true());
    }
}

#[test]
fn heap_subtrees_are_bounded_below_by_the_root() {
    let heap = datatype(&row_goal("Binary Heap", "insert"), "Heap");
    let (args, _) = heap.constructor("HNode").unwrap().schema.ty.uncurry();
    for (_, subtree) in &args[1..] {
        assert!(element_type(subtree)
            .refinement()
            .to_string()
            .contains("<="));
    }
}

#[test]
fn constructors_specify_the_exact_element_set() {
    let one = row_goal("Binary Heap", "1-element constructor");
    let (_, ret) = one.schema.ty.uncurry();
    assert!(ret.refinement().to_string().contains("helems"));
    let two = row_goal("Binary Heap", "2-element constructor");
    let (args, _) = two.schema.ty.uncurry();
    assert_eq!(args.len(), 2);
}

#[test]
fn address_book_goals_are_well_formed() {
    for name in ["make address book", "merge address books"] {
        let goal = row_goal("User", name);
        assert!(goal.schema.ty.is_function());
        assert!(goal.env.datatype("Book").is_some());
    }
}

#[test]
fn address_book_counts_private_and_business_entries() {
    let book = datatype(&row_goal("User", "merge address books"), "Book");
    assert_eq!(book.constructors.len(), 2);
    assert!(book.measure("bpriv").unwrap().non_negative);
    assert!(book.measure("bbus").unwrap().non_negative);
    assert_eq!(book.constructor("BAdd").unwrap().arity(), 3);
}

#[test]
fn make_address_book_classifies_entries_with_a_component() {
    let goal = row_goal("User", "make address book");
    assert!(goal.env.lookup("is_private").is_some());
    assert!(goal.env.datatype("List").is_some());
    assert!(goal.env.datatype("Book").is_some());
}

#[test]
fn all_extra_datatypes_have_scalar_constructors_for_match_abduction() {
    for (group, name, dt) in [
        ("Tree", "is member", "Tree"),
        ("Binary Heap", "insert", "Heap"),
        ("Unique list", "insert", "UList"),
        ("Strictly sorted list", "insert", "SList"),
        ("User", "merge address books", "Book"),
    ] {
        let datatype = datatype(&row_goal(group, name), dt);
        assert!(
            datatype.has_scalar_constructor(),
            "{dt} should have a scalar constructor"
        );
    }
}
