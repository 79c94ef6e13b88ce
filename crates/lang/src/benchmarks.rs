//! The benchmark suite of the paper's evaluation (Sec. 4).
//!
//! [`table1`] lists all 64 synthesis problems of Table 1 with their group,
//! the component set description, and the synthesis time reported in the
//! paper (`T-all`, seconds). A transcribed row names its `.sq`
//! specification under `specs/`, and [`Benchmark::load_goal`] loads the
//! goal from it; the remaining rows are kept so that the reproduction
//! honestly reports coverage instead of silently shrinking the table.
//!
//! [`table2`] lists the cross-tool comparison of Table 2 (competitor
//! numbers are quoted from the paper, the Synquid column is measured by
//! the harness), and [`sygus`] generates the `max_n` / `array_search_n`
//! family of Fig. 7 — the one part of the suite built in Rust, because
//! it is parameterised by `n`.

use crate::components::{add_comparison_components, add_int_constants, base_environment};
use crate::spec::{corpus_dir, load_file};
use std::error::Error;
use synquid_core::Goal;
use synquid_logic::{Sort, Term};
use synquid_types::{BaseType, RType, Schema};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as it appears in the paper.
    pub name: &'static str,
    /// Benchmark group (List, Unique list, Sorting, …).
    pub group: &'static str,
    /// Synthesis time reported by the paper (T-all column, seconds).
    pub paper_time: f64,
    /// Size of the synthesized code reported by the paper (AST nodes).
    pub paper_code_size: usize,
    /// Exploration bounds `(application depth, match depth)`.
    pub bounds: (usize, usize),
    /// The row's `.sq` specification, relative to the `specs/`
    /// directory; `None` for rows not transcribed.
    pub spec: Option<&'static str>,
}

impl Benchmark {
    /// Loads the goal of a transcribed row: the one goal its
    /// specification declares (`None` for rows not transcribed).
    pub fn load_goal(&self) -> Option<Result<Goal, Box<dyn Error>>> {
        self.spec.map(load_single_goal)
    }
}

/// Loads a spec (relative to `specs/`) that must declare exactly one goal.
fn load_single_goal(spec: &str) -> Result<Goal, Box<dyn Error>> {
    let dir = corpus_dir().ok_or("specs/ directory not found")?;
    let mut goals = load_file(dir.join(spec))?.goals;
    if goals.len() != 1 {
        return Err(format!("specs/{spec} declares {} goals, expected one", goals.len()).into());
    }
    Ok(goals.remove(0))
}

fn nu_int() -> Term {
    Term::value_var(Sort::Int)
}
fn ivar(n: &str) -> Term {
    Term::var(n, Sort::Int)
}

// ---------------------------------------------------------------------
// SyGuS benchmarks (Fig. 7)
// ---------------------------------------------------------------------

/// `max_n`: the maximum of `n` integer arguments (Fig. 7, left).
pub fn max_n(n: usize) -> Goal {
    let mut env = base_environment();
    add_comparison_components(&mut env, Sort::Int);
    let args: Vec<(String, RType)> = (1..=n).map(|i| (format!("x{i}"), RType::int())).collect();
    let nu = nu_int();
    let at_least = Term::conjunction((1..=n).map(|i| nu.clone().ge(ivar(&format!("x{i}")))));
    let is_one = Term::disjunction((1..=n).map(|i| nu.clone().eq(ivar(&format!("x{i}")))));
    let ret = RType::refined(BaseType::Int, at_least.and(is_one));
    Goal::new(
        format!("max{n}"),
        env,
        Schema::monotype(RType::fun_n(args, ret)),
    )
}

/// `array_search_n`: find the index of a key in a sorted "array" given as
/// `n` strictly increasing arguments (Fig. 7, right). The result is the
/// number of array elements smaller than the key.
pub fn array_search_n(n: usize) -> Goal {
    let mut env = base_environment();
    add_comparison_components(&mut env, Sort::Int);
    add_int_constants(&mut env, n as i64);
    let mut args: Vec<(String, RType)> = vec![("k".into(), RType::int())];
    for i in 1..=n {
        let refinement = if i == 1 {
            Term::tt()
        } else {
            Term::value_var(Sort::Int).gt(ivar(&format!("x{}", i - 1)))
        };
        args.push((format!("x{i}"), RType::refined(BaseType::Int, refinement)));
    }
    // The key is different from every element (as in the SyGuS benchmark).
    let distinct = Term::conjunction((1..=n).map(|i| ivar("k").neq(ivar(&format!("x{i}")))));
    args[0].1 = RType::refined(BaseType::Int, distinct.substitute_value(&nu_int()));
    // Result: ν = number of elements below k, expressed positionally.
    let nu = nu_int();
    let mut clauses = vec![];
    for r in 0..=n {
        // ν = r ⇔ (x_r < k < x_{r+1}) with the conventions x_0 = -∞, x_{n+1} = +∞.
        let mut cond = Term::tt();
        if r >= 1 {
            cond = cond.and(ivar(&format!("x{r}")).lt(ivar("k")));
        }
        if r < n {
            cond = cond.and(ivar("k").lt(ivar(&format!("x{}", r + 1))));
        }
        clauses.push(nu.clone().eq(Term::int(r as i64)).iff(cond));
    }
    let ret = RType::refined(BaseType::Int, Term::conjunction(clauses));
    Goal::new(
        format!("array_search{n}"),
        env,
        Schema::monotype(RType::fun_n(args, ret)),
    )
}

/// The Fig. 7 benchmark family: `(name, n, goal)` for both `max_n` and
/// `array_search_n`, n = 2..=max_n.
pub fn sygus(max_n_param: usize) -> Vec<(String, usize, Goal)> {
    let mut out = Vec::new();
    for n in 2..=max_n_param {
        out.push((format!("max{n}"), n, max_n(n)));
    }
    for n in 2..=max_n_param {
        out.push((format!("array_search{n}"), n, array_search_n(n)));
    }
    out
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// All 64 rows of Table 1. `spec` is `Some` for the transcribed subset.
pub fn table1() -> Vec<Benchmark> {
    fn row(
        group: &'static str,
        name: &'static str,
        paper_time: f64,
        paper_code_size: usize,
        bounds: (usize, usize),
        spec: Option<&'static str>,
    ) -> Benchmark {
        Benchmark {
            name,
            group,
            paper_time,
            paper_code_size,
            bounds,
            spec,
        }
    }
    vec![
        row("List", "is empty", 0.02, 6, (1, 1), Some("is_empty.sq")),
        row("List", "is member", 0.11, 18, (2, 1), Some("elem.sq")),
        row(
            "List",
            "duplicate each element",
            0.05,
            16,
            (3, 1),
            Some("double.sq"),
        ),
        row("List", "replicate", 0.05, 21, (3, 0), Some("replicate.sq")),
        row(
            "List",
            "append two lists",
            0.15,
            15,
            (3, 1),
            Some("append.sq"),
        ),
        row("List", "concatenate list of lists", 0.05, 12, (3, 1), None),
        row(
            "List",
            "take first n elements",
            0.12,
            27,
            (2, 1),
            Some("take.sq"),
        ),
        row(
            "List",
            "drop first n elements",
            0.10,
            20,
            (2, 1),
            Some("drop.sq"),
        ),
        row("List", "delete value", 0.10, 26, (3, 1), Some("delete.sq")),
        row("List", "map", 0.03, 22, (3, 1), Some("table1/map.sq")),
        row("List", "zip", 0.08, 22, (3, 2), None),
        row("List", "zip with function", 0.07, 33, (3, 2), None),
        row("List", "cartesian product", 0.30, 26, (3, 1), None),
        row(
            "List",
            "i-th element",
            0.05,
            20,
            (2, 1),
            Some("table1/elem_or_default.sq"),
        ),
        row("List", "index of element", 0.08, 20, (3, 1), None),
        row(
            "List",
            "insert at end",
            0.10,
            19,
            (3, 1),
            Some("insert_at_end.sq"),
        ),
        row("List", "reverse", 0.09, 12, (3, 1), Some("reverse.sq")),
        row("List", "foldr", 0.10, 32, (3, 1), None),
        row(
            "List",
            "length using fold",
            0.03,
            17,
            (2, 1),
            Some("length.sq"),
        ),
        row("List", "append using fold", 0.04, 20, (3, 0), None),
        row(
            "Unique list",
            "insert",
            0.27,
            26,
            (2, 1),
            Some("table1/unique_insert.sq"),
        ),
        row(
            "Unique list",
            "delete",
            0.18,
            22,
            (2, 1),
            Some("table1/unique_delete.sq"),
        ),
        row(
            "Unique list",
            "remove duplicates",
            0.36,
            47,
            (2, 1),
            Some("table1/remove_duplicates.sq"),
        ),
        row(
            "Unique list",
            "remove adjacent dupl.",
            1.33,
            32,
            (3, 2),
            None,
        ),
        row("Unique list", "integer range", 2.36, 23, (3, 0), None),
        row(
            "Strictly sorted list",
            "insert",
            0.18,
            41,
            (2, 1),
            Some("table1/strict_insert.sq"),
        ),
        row(
            "Strictly sorted list",
            "delete",
            0.10,
            29,
            (2, 1),
            Some("table1/strict_delete.sq"),
        ),
        row("Strictly sorted list", "intersect", 0.33, 40, (3, 2), None),
        row(
            "Sorting",
            "insert (sorted)",
            0.25,
            34,
            (3, 1),
            Some("insert_sorted.sq"),
        ),
        row(
            "Sorting",
            "insertion sort",
            0.06,
            12,
            (2, 1),
            Some("table1/insertion_sort.sq"),
        ),
        row("Sorting", "sort by folding", 2.14, 47, (3, 1), None),
        row(
            "Sorting",
            "extract minimum",
            4.28,
            40,
            (2, 1),
            Some("table1/sorted_head.sq"),
        ),
        row("Sorting", "selection sort", 0.49, 16, (3, 1), None),
        row("Sorting", "balanced split", 0.96, 33, (3, 2), None),
        row(
            "Sorting",
            "merge",
            2.19,
            41,
            (2, 1),
            Some("table1/merge.sq"),
        ),
        row("Sorting", "merge sort", 2.10, 25, (3, 2), None),
        row("Sorting", "partition", 2.84, 40, (3, 2), None),
        row("Sorting", "append with pivot", 0.22, 22, (3, 1), None),
        row("Sorting", "quick sort", 2.71, 22, (3, 2), None),
        row(
            "Tree",
            "is member",
            0.29,
            28,
            (2, 1),
            Some("tree_member.sq"),
        ),
        row(
            "Tree",
            "node count",
            0.20,
            18,
            (2, 1),
            Some("tree_count.sq"),
        ),
        row(
            "Tree",
            "preorder",
            0.21,
            18,
            (2, 1),
            Some("table1/tree_preorder.sq"),
        ),
        row("Tree", "create balanced", 0.14, 29, (3, 1), None),
        row("BST", "is member", 0.09, 37, (2, 1), Some("bst_member.sq")),
        row("BST", "insert", 0.91, 55, (3, 1), Some("bst_insert.sq")),
        row("BST", "delete", 5.68, 68, (3, 2), None),
        row("BST", "BST sort", 1.38, 115, (3, 2), None),
        row(
            "Binary Heap",
            "is member",
            0.38,
            43,
            (2, 1),
            Some("table1/heap_member.sq"),
        ),
        row(
            "Binary Heap",
            "insert",
            0.51,
            55,
            (2, 1),
            Some("table1/heap_insert.sq"),
        ),
        row(
            "Binary Heap",
            "1-element constructor",
            0.02,
            8,
            (1, 0),
            Some("heap_singleton.sq"),
        ),
        row(
            "Binary Heap",
            "2-element constructor",
            0.08,
            55,
            (2, 0),
            Some("table1/heap_two.sq"),
        ),
        row(
            "Binary Heap",
            "3-element constructor",
            2.10,
            246,
            (3, 0),
            None,
        ),
        row("AVL", "rotate left", 11.08, 91, (3, 1), None),
        row("AVL", "rotate right", 19.23, 91, (3, 1), None),
        row("AVL", "balance", 1.56, 119, (3, 1), None),
        row("AVL", "insert", 1.84, 47, (3, 1), None),
        row("AVL", "extract minimum", 1.92, 25, (3, 2), None),
        row("AVL", "delete", 15.67, 63, (3, 2), None),
        row("RBT", "balance left", 5.62, 137, (3, 1), None),
        row("RBT", "balance right", 7.63, 137, (3, 1), None),
        row("RBT", "insert", 8.95, 112, (3, 1), None),
        row("User", "desugar AST", 1.17, 46, (3, 1), None),
        row(
            "User",
            "make address book",
            0.62,
            35,
            (2, 1),
            Some("table1/make_address_book.sq"),
        ),
        row(
            "User",
            "merge address books",
            0.35,
            19,
            (2, 1),
            Some("table1/merge_address_books.sq"),
        ),
    ]
}

/// The benchmarks of Table 1 whose specifications have been transcribed.
pub fn transcribed() -> Vec<Benchmark> {
    table1().into_iter().filter(|b| b.spec.is_some()).collect()
}

/// One row of Table 2 (comparison with other synthesizers). Competitor
/// numbers are quoted from the respective papers, exactly as Table 2 does.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Competing tool.
    pub tool: &'static str,
    /// Benchmark name as reported by that tool.
    pub benchmark: &'static str,
    /// Specification size (or number of examples) for the competitor.
    pub competitor_spec: Option<usize>,
    /// Running time reported for the competitor (seconds).
    pub competitor_time: f64,
    /// Spec size reported for Synquid in the paper.
    pub synquid_spec: usize,
    /// Synquid time reported in the paper (seconds).
    pub synquid_time: f64,
    /// The specification of the corresponding [`table1`] row, if
    /// transcribed. Rows are linked by spec path because row names
    /// repeat across Table 1 groups ("is member", "insert").
    pub table1_spec: Option<&'static str>,
}

impl ComparisonRow {
    /// The Table 1 row this comparison measures, looked up in `rows`.
    pub fn table1_row<'a>(&self, rows: &'a [Benchmark]) -> Option<&'a Benchmark> {
        let spec = self.table1_spec?;
        rows.iter().find(|b| b.spec == Some(spec))
    }
}

/// All 18 rows of Table 2.
pub fn table2() -> Vec<ComparisonRow> {
    fn row(
        tool: &'static str,
        benchmark: &'static str,
        competitor_spec: Option<usize>,
        competitor_time: f64,
        synquid_spec: usize,
        synquid_time: f64,
        table1_spec: Option<&'static str>,
    ) -> ComparisonRow {
        ComparisonRow {
            tool,
            benchmark,
            competitor_spec,
            competitor_time,
            synquid_spec,
            synquid_time,
            table1_spec,
        }
    }
    vec![
        row(
            "Leon",
            "strict sorted list delete",
            Some(14),
            15.1,
            8,
            0.10,
            Some("table1/strict_delete.sq"),
        ),
        row(
            "Leon",
            "strict sorted list insert",
            Some(14),
            14.1,
            8,
            0.18,
            Some("table1/strict_insert.sq"),
        ),
        row("Leon", "merge sort", Some(9), 14.3, 11, 2.1, None),
        row(
            "Jennisys",
            "BST find",
            Some(51),
            64.8,
            6,
            0.09,
            Some("bst_member.sq"),
        ),
        row(
            "Jennisys",
            "bin. heap 1-element",
            Some(80),
            61.6,
            5,
            0.02,
            Some("heap_singleton.sq"),
        ),
        row(
            "Jennisys",
            "bin. heap find",
            Some(76),
            51.9,
            6,
            0.38,
            Some("table1/heap_member.sq"),
        ),
        row(
            "Myth",
            "sorted list insert",
            Some(12),
            0.12,
            8,
            0.25,
            Some("insert_sorted.sq"),
        ),
        row(
            "Myth",
            "list rm adjacent dupl.",
            Some(13),
            0.07,
            5,
            1.33,
            None,
        ),
        row(
            "Myth",
            "BST insert",
            Some(20),
            0.37,
            8,
            0.91,
            Some("bst_insert.sq"),
        ),
        row(
            "Lambda2",
            "list remove duplicates",
            Some(7),
            231.0,
            13,
            0.36,
            Some("table1/remove_duplicates.sq"),
        ),
        row(
            "Lambda2",
            "list drop",
            Some(6),
            316.4,
            11,
            0.1,
            Some("drop.sq"),
        ),
        row(
            "Lambda2",
            "tree find",
            Some(12),
            4.7,
            6,
            0.29,
            Some("tree_member.sq"),
        ),
        row("Escher", "list rm adjacent dupl.", None, 1.0, 5, 1.33, None),
        row("Escher", "tree create balanced", None, 0.24, 7, 0.14, None),
        row(
            "Escher",
            "list duplicate each",
            None,
            0.16,
            7,
            0.05,
            Some("double.sq"),
        ),
        row(
            "Myth2",
            "BST insert",
            None,
            1.81,
            8,
            0.91,
            Some("bst_insert.sq"),
        ),
        row(
            "Myth2",
            "sorted list insert",
            None,
            1.02,
            8,
            0.25,
            Some("insert_sorted.sq"),
        ),
        row(
            "Myth2",
            "tree count nodes",
            None,
            0.45,
            4,
            0.20,
            Some("tree_count.sq"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_64_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 64);
        let groups: std::collections::BTreeSet<_> = rows.iter().map(|r| r.group).collect();
        assert!(groups.contains("List"));
        assert!(groups.contains("Sorting"));
        assert!(groups.contains("RBT"));
    }

    #[test]
    fn a_meaningful_subset_is_transcribed() {
        let t = transcribed();
        assert!(
            t.len() >= 10,
            "expected at least 10 transcribed goals, got {}",
            t.len()
        );
        for b in &t {
            let goal = b
                .load_goal()
                .expect("transcribed rows name a spec")
                .unwrap_or_else(|e| panic!("{}/{}: {e}", b.group, b.name));
            assert!(!goal.name.is_empty());
        }
    }

    #[test]
    fn table2_has_all_18_rows() {
        assert_eq!(table2().len(), 18);
        assert_eq!(table2().iter().filter(|r| r.tool == "Leon").count(), 3);
    }

    #[test]
    fn table2_links_resolve_to_exactly_one_table1_row() {
        let rows = table1();
        let linked: Vec<ComparisonRow> = table2()
            .into_iter()
            .filter(|r| r.table1_spec.is_some())
            .collect();
        assert!(linked.len() >= 5);
        for r in &linked {
            let matching = rows.iter().filter(|b| b.spec == r.table1_spec).count();
            assert_eq!(
                matching, 1,
                "{} / {} links to {matching} Table 1 rows",
                r.tool, r.benchmark
            );
        }
        // Row names repeat across groups ("is member", "insert"): the BST
        // comparisons must measure the BST goals, not List or Unique list.
        for (tool, benchmark, name) in [
            ("Jennisys", "BST find", "is member"),
            ("Myth", "BST insert", "insert"),
            ("Myth2", "BST insert", "insert"),
        ] {
            let r = linked
                .iter()
                .find(|r| r.tool == tool && r.benchmark == benchmark)
                .unwrap_or_else(|| panic!("{tool} / {benchmark} is not linked"));
            let row = r.table1_row(&rows).expect("link resolves");
            assert_eq!((row.group, row.name), ("BST", name), "{tool} / {benchmark}");
        }
    }

    #[test]
    fn sygus_family_generates_both_benchmarks() {
        let family = sygus(4);
        assert_eq!(family.len(), 6);
        assert!(family.iter().any(|(n, _, _)| n == "max2"));
        assert!(family.iter().any(|(n, _, _)| n == "array_search4"));
    }

    #[test]
    fn max_n_goal_has_n_arguments() {
        let goal = max_n(3);
        let (args, _) = goal.schema.ty.uncurry();
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn array_search_arguments_are_sorted_by_refinement() {
        let goal = array_search_n(3);
        let (args, _) = goal.schema.ty.uncurry();
        assert_eq!(args.len(), 4); // k plus 3 elements
        assert!(args[2].1.refinement().to_string().contains('>'));
    }
}
