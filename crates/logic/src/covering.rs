//! The Quine–McCluskey reduction: PLA → unate covering instance → minimised
//! PLA.
//!
//! Rows are `(ON-minterm, output)` pairs; columns are candidate product
//! terms `(cube, output set)` where the cube is an implicant of `ON ∪ DC`
//! for every output in the set. Column costs are 1 (the paper's objective:
//! number of products, literals only a secondary concern).
//!
//! **Multi-output fidelity.** Columns start from each output's single-output
//! primes with their *maximal* shared output set, then are closed under
//! pairwise intersection (bounded) so that terms shared between outputs —
//! multi-output primes whose input part is prime for no single output — are
//! available too. The closure is capped; see `DESIGN.md`.

use crate::cube::Cube;
use crate::pla::{Pla, PlaType};
use crate::primes::prime_cubes;
use bdd::{Bdd, BddId};
use cover::{CoverMatrix, Solution};
use std::collections::HashMap;
use std::fmt;

/// Guard on explicit minterm expansion.
const MAX_EXPANSION_INPUTS: usize = 24;
/// Cap on the column closure.
const MAX_COLUMNS: usize = 20_000;

/// A unate covering instance derived from a PLA.
#[derive(Clone, Debug)]
pub struct UcpInstance {
    /// The covering matrix (rows: ON-minterm/output pairs; columns: terms).
    pub matrix: CoverMatrix,
    /// Column meanings: `(input cube, output mask)`.
    pub columns: Vec<(Cube, u64)>,
    /// Row meanings: `(minterm assignment, output index)`.
    pub rows: Vec<(u64, usize)>,
    num_inputs: usize,
    num_outputs: usize,
}

/// Why a covering instance could not be built.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildCoveringError {
    /// Explicit minterm expansion would exceed the supported input count.
    TooManyInputs(usize),
}

impl fmt::Display for BuildCoveringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCoveringError::TooManyInputs(n) => {
                write!(
                    f,
                    "explicit minterm rows need ≤ {MAX_EXPANSION_INPUTS} inputs, got {n}"
                )
            }
        }
    }
}

impl std::error::Error for BuildCoveringError {}

impl UcpInstance {
    /// Number of PLA inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of PLA outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Rebuilds a PLA from a covering solution: one product line per chosen
    /// column, asserting every output in the column's mask.
    ///
    /// # Panics
    ///
    /// Panics if the solution references a column out of range.
    pub fn solution_to_pla(&self, solution: &Solution) -> Pla {
        let mut pla = Pla::new(self.num_inputs, self.num_outputs);
        for &j in solution.cols() {
            let (cube, mask) = self.columns[j];
            pla.push_term(cube, mask, 0);
        }
        pla
    }

    /// Verifies that a candidate PLA realises the original specification:
    /// for every output, `ON ⊆ candidate ⊆ ON ∪ DC`.
    ///
    /// Checked exactly on BDDs of the specification and the candidate in
    /// one manager (`ON ⇒ candidate` and `candidate ⇒ ON ∨ DC`), so the
    /// cost tracks the diagrams, not the `2^n` assignments.
    pub fn verify_against(&self, original: &Pla, candidate: &Pla) -> bool {
        if original.num_inputs() != candidate.num_inputs()
            || original.num_outputs() != candidate.num_outputs()
        {
            return false;
        }
        let mut mgr = Bdd::default();
        let spec = original.output_functions(&mut mgr);
        spec.iter().enumerate().all(|(o, f)| {
            let cand = candidate.on_cover(o).to_bdd(&mut mgr);
            let upper = mgr.or(f.on, f.dc);
            mgr.implies_check(f.on, cand) && mgr.implies_check(cand, upper)
        })
    }
}

/// The column-cost objective.
///
/// The paper's cost function "is assumed to be the number of products …
/// with only a secondary concern given to the number of literals" —
/// [`TermCost::ProductsThenLiterals`] realises exactly that lexicographic
/// objective by pricing each term `1 + ε·literals` with `ε` small enough
/// that literal savings can never outweigh a whole product.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TermCost {
    /// Unit cost per product term (the primary objective alone). Integer
    /// costs keep the `⌈LB⌉` optimality certificate available.
    #[default]
    Products,
    /// `1 + ε·literal_count` per term: minimise products first, literals
    /// second. Costs become fractional, so the integer rounding certificate
    /// is unavailable.
    ProductsThenLiterals,
}

/// Builds the unate covering instance of a PLA with unit term costs.
///
/// # Errors
///
/// Returns [`BuildCoveringError::TooManyInputs`] when the PLA has more than
/// 24 inputs (explicit row enumeration guard).
///
/// # Example
///
/// ```
/// use logic::{build_covering, Pla};
/// let pla: Pla = ".i 2\n.o 1\n11 1\n10 1\n01 1\n.e\n".parse()?;
/// let inst = build_covering(&pla)?;
/// assert_eq!(inst.rows.len(), 3);
/// // Primes of (x0 ∧ x1) ∨ (x0 ∧ ¬x1) ∨ (¬x0 ∧ x1) = x0 ∨ x1: two columns.
/// assert_eq!(inst.columns.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_covering(pla: &Pla) -> Result<UcpInstance, BuildCoveringError> {
    build_covering_with(pla, TermCost::Products)
}

/// Builds the unate covering instance of a PLA under the chosen objective.
///
/// # Errors
///
/// See [`build_covering`].
pub fn build_covering_with(pla: &Pla, cost: TermCost) -> Result<UcpInstance, BuildCoveringError> {
    build_covering_by(pla, cost, covering_rows)
}

/// The covering matrix's rows: `(row meanings, row lists, kept columns)`.
type Rows = (Vec<(u64, usize)>, Vec<Vec<usize>>, Vec<(Cube, u64)>);

/// Builds [`Rows`] from the input count, each output's ON-minterms and
/// the sorted candidate columns.
type RowBuilder = fn(usize, &[Vec<u64>], Vec<(Cube, u64)>) -> Rows;

/// [`build_covering_with`] with the row builder as a parameter, so tests
/// can check [`covering_rows`] against the row-major reference.
fn build_covering_by(
    pla: &Pla,
    cost: TermCost,
    rows: RowBuilder,
) -> Result<UcpInstance, BuildCoveringError> {
    let n = pla.num_inputs();
    if n > MAX_EXPANSION_INPUTS {
        return Err(BuildCoveringError::TooManyInputs(n));
    }
    let mut mgr = Bdd::default();
    let funcs = pla.output_functions(&mut mgr);
    let uppers: Vec<BddId> = funcs
        .iter()
        .map(|f| {
            let mut m = f.on;
            m = {
                let dc = f.dc;
                mgr.or(m, dc)
            };
            m
        })
        .collect();

    // Per-output primes with their maximal output sets.
    let mut col_mask: HashMap<Cube, u64> = HashMap::new();
    for upper in &uppers {
        for cube in prime_cubes(&mut mgr, *upper) {
            col_mask.entry(cube).or_insert(0);
        }
    }
    // Maximal output set of each cube (implicant test against every upper).
    let cubes: Vec<Cube> = col_mask.keys().copied().collect();
    for cube in cubes {
        let mask = output_set(&mut mgr, &uppers, &cube, n);
        col_mask.insert(cube, mask);
    }

    // Bounded closure under pairwise intersection, so shared multi-output
    // terms become available.
    if pla.num_outputs() > 1 {
        let mut worklist: Vec<Cube> = col_mask.keys().copied().collect();
        while let Some(a) = worklist.pop() {
            if col_mask.len() >= MAX_COLUMNS {
                break;
            }
            let snapshot: Vec<(Cube, u64)> = col_mask.iter().map(|(c, m)| (*c, *m)).collect();
            let mask_a = col_mask[&a];
            for (b, mask_b) in snapshot {
                if mask_a & !mask_b == 0 && mask_b & !mask_a == 0 {
                    continue; // same output set: intersection gains nothing
                }
                if let Some(c) = a.intersect(&b) {
                    if col_mask.contains_key(&c) {
                        continue;
                    }
                    let mask_c = output_set(&mut mgr, &uppers, &c, n);
                    if mask_c & !(mask_a | mask_b) != 0 || (mask_c != mask_a && mask_c != mask_b) {
                        col_mask.insert(c, mask_c);
                        worklist.push(c);
                    }
                    if col_mask.len() >= MAX_COLUMNS {
                        break;
                    }
                }
            }
        }
    }

    // Freeze columns in a deterministic order.
    let mut columns: Vec<(Cube, u64)> = col_mask.into_iter().collect();
    columns.sort();
    let on_minterms: Vec<Vec<u64>> = funcs.iter().map(|f| mgr.minterms(f.on, n as u32)).collect();
    let (rows_meta, sparse_rows, columns) = rows(n, &on_minterms, columns);
    let costs: Vec<f64> = match cost {
        TermCost::Products => vec![1.0; columns.len()],
        TermCost::ProductsThenLiterals => {
            // ε small enough that even every column paying the maximum
            // literal premium sums below one whole product.
            let eps = 1.0 / ((columns.len().max(1) * (n + 1) * 2) as f64);
            columns
                .iter()
                .map(|(cube, _)| 1.0 + eps * f64::from(cube.literal_count()))
                .collect()
        }
    };
    let matrix = CoverMatrix::with_costs(columns.len(), sparse_rows, costs);
    Ok(UcpInstance {
        matrix,
        columns,
        rows: rows_meta,
        num_inputs: n,
        num_outputs: pla.num_outputs(),
    })
}

/// Builds the rows of the covering matrix column by column.
///
/// Rows are the `(minterm, output)` pairs of `on_minterms`, output-major.
/// Each candidate column, in order, visits the ON-minterms it covers for
/// every output in its mask, either by enumerating the cube's own minterms
/// (submasks of its free variables) against a per-output minterm index or,
/// when the cube is wider than that output's ON-set, by scanning the
/// ON-set. Columns covering no ON-minterm (pure-DC primes) are dropped and
/// the rest renumbered in order, so every row list comes out ascending.
fn covering_rows(n: usize, on_minterms: &[Vec<u64>], candidates: Vec<(Cube, u64)>) -> Rows {
    let mut rows_meta: Vec<(u64, usize)> = Vec::new();
    let mut index: Vec<Vec<(u64, usize)>> = Vec::with_capacity(on_minterms.len());
    for (o, ms) in on_minterms.iter().enumerate() {
        let mut by_minterm: Vec<(u64, usize)> = ms
            .iter()
            .enumerate()
            .map(|(k, &m)| (m, rows_meta.len() + k))
            .collect();
        by_minterm.sort_unstable();
        index.push(by_minterm);
        rows_meta.extend(ms.iter().map(|&m| (m, o)));
    }
    let mut sparse_rows: Vec<Vec<usize>> = vec![Vec::new(); rows_meta.len()];
    let inputs = (1u64 << n) - 1;
    let mut columns: Vec<(Cube, u64)> = Vec::new();
    for (cube, mask) in candidates {
        let j = columns.len();
        let free = inputs & !(cube.pos() | cube.neg());
        let mut hit = false;
        for (o, by_minterm) in index.iter().enumerate() {
            if mask >> o & 1 == 0 {
                continue;
            }
            if 1usize << free.count_ones() <= by_minterm.len() {
                let mut sub = free;
                loop {
                    let m = cube.pos() | sub;
                    if let Ok(k) = by_minterm.binary_search_by_key(&m, |&(m, _)| m) {
                        sparse_rows[by_minterm[k].1].push(j);
                        hit = true;
                    }
                    if sub == 0 {
                        break;
                    }
                    sub = (sub - 1) & free;
                }
            } else {
                for &(m, i) in by_minterm {
                    if cube.eval(m) {
                        sparse_rows[i].push(j);
                        hit = true;
                    }
                }
            }
        }
        if hit {
            columns.push((cube, mask));
        }
    }
    (rows_meta, sparse_rows, columns)
}

/// The maximal set of outputs for which `cube` is an implicant of `upper_o`.
fn output_set(mgr: &mut Bdd, uppers: &[BddId], cube: &Cube, n: usize) -> u64 {
    let mut cube_bdd = BddId::TRUE;
    for v in (0..n).rev() {
        if cube.has_pos(v) {
            let lit = mgr.var(v as u32);
            cube_bdd = mgr.and(lit, cube_bdd);
        } else if cube.has_neg(v) {
            let lit = mgr.nvar(v as u32);
            cube_bdd = mgr.and(lit, cube_bdd);
        }
    }
    let mut mask = 0u64;
    for (o, &upper) in uppers.iter().enumerate() {
        if mgr.implies_check(cube_bdd, upper) {
            mask |= 1 << o;
        }
    }
    mask
}

/// Convenience: is this PLA's covering formulation single-output?
pub fn is_single_output(pla: &Pla) -> bool {
    pla.num_outputs() == 1 && pla.pla_type() != PlaType::Fr || pla.num_outputs() == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_brute(inst: &UcpInstance) -> Solution {
        let n = inst.matrix.num_cols();
        assert!(n <= 20);
        let mut best: Option<(u32, u32)> = None; // (popcount, mask)
        'mask: for mask in 0u32..(1 << n) {
            for row in inst.matrix.rows() {
                if !row.iter().any(|&j| mask >> j & 1 == 1) {
                    continue 'mask;
                }
            }
            let pc = mask.count_ones();
            if best.is_none_or(|(bpc, _)| pc < bpc) {
                best = Some((pc, mask));
            }
        }
        let (_, mask) = best.expect("coverable");
        Solution::from_cols((0..n).filter(|&j| mask >> j & 1 == 1).collect())
    }

    #[test]
    fn single_output_end_to_end() {
        // f = x0x1 + x0x1' + x0'x1 = x0 + x1: minimised cover is 2 terms.
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 1\n01 1\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let sol = solve_brute(&inst);
        assert_eq!(sol.len(), 2);
        let min = inst.solution_to_pla(&sol);
        assert!(inst.verify_against(&pla, &min));
    }

    #[test]
    fn dont_cares_enable_wider_primes() {
        // ON = {11}, DC = {10, 01}: the single prime x0∨... covering 11 with
        // DC help can be 1- or -1 (2^2 grid) — one term suffices.
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 -\n01 -\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let sol = solve_brute(&inst);
        assert_eq!(sol.len(), 1);
        let min = inst.solution_to_pla(&sol);
        assert!(inst.verify_against(&pla, &min));
    }

    #[test]
    fn multi_output_sharing() {
        // f0 = x0x1, f1 = x0x1: identical outputs share the single term.
        let pla: Pla = ".i 2\n.o 2\n11 11\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let sol = solve_brute(&inst);
        assert_eq!(sol.len(), 1, "one shared term must suffice");
        let min = inst.solution_to_pla(&sol);
        assert!(inst.verify_against(&pla, &min));
    }

    #[test]
    fn shared_intersection_term_is_generated() {
        // f0 = x0x1 (on {11x}), f1 = x0x2: true multi-output prime x0x1x2
        // serves both outputs though it is prime for neither alone.
        let pla: Pla = ".i 3\n.o 2\n11- 10\n1-1 01\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let shared = inst
            .columns
            .iter()
            .any(|&(c, mask)| mask == 0b11 && c == "111".parse().unwrap());
        assert!(
            shared,
            "closure should add the shared term: {:?}",
            inst.columns
        );
    }

    #[test]
    fn rows_are_on_minterms_only() {
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 -\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        assert_eq!(inst.rows, vec![(0b11, 0)]);
    }

    #[test]
    fn too_many_inputs_rejected() {
        let pla = Pla::new(30, 1);
        assert_eq!(
            build_covering(&pla).unwrap_err(),
            BuildCoveringError::TooManyInputs(30)
        );
    }

    #[test]
    fn empty_function_yields_empty_instance() {
        let pla: Pla = ".i 2\n.o 1\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        assert_eq!(inst.rows.len(), 0);
        assert_eq!(inst.matrix.num_rows(), 0);
    }
}

/// The column-major row builder and the BDD verifier against the
/// explicit algorithms they replaced, kept here only as oracles.
#[cfg(test)]
mod equivalence_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The row-major reference: every row tests every column.
    fn covering_rows_row_major(
        _n: usize,
        on_minterms: &[Vec<u64>],
        mut columns: Vec<(Cube, u64)>,
    ) -> Rows {
        columns.retain(|(cube, mask)| {
            (0..on_minterms.len())
                .any(|o| mask >> o & 1 == 1 && on_minterms[o].iter().any(|&m| cube.eval(m)))
        });
        let mut rows_meta: Vec<(u64, usize)> = Vec::new();
        for (o, ms) in on_minterms.iter().enumerate() {
            for &m in ms {
                rows_meta.push((m, o));
            }
        }
        let sparse_rows = rows_meta
            .iter()
            .map(|&(m, o)| {
                columns
                    .iter()
                    .enumerate()
                    .filter(|(_, (cube, mask))| mask >> o & 1 == 1 && cube.eval(m))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        (rows_meta, sparse_rows, columns)
    }

    /// Brute-force `ON ⊆ candidate ⊆ ON ∪ DC` over all `2^n` assignments.
    fn verify_brute(original: &Pla, candidate: &Pla) -> bool {
        if original.num_inputs() != candidate.num_inputs()
            || original.num_outputs() != candidate.num_outputs()
        {
            return false;
        }
        (0..original.num_outputs()).all(|o| {
            let (on, dc, cand) = (
                original.on_cover(o),
                original.dc_cover(o),
                candidate.on_cover(o),
            );
            (0..1u64 << original.num_inputs()).all(|a| {
                let got = cand.eval(a);
                if on.eval(a) {
                    got
                } else {
                    !got || dc.eval(a)
                }
            })
        })
    }

    /// A random PLA: about a third of the literals fixed per term, one
    /// output per term, one term in five a don't-care.
    fn random_pla(inputs: usize, outputs: usize, terms: usize, seed: u64) -> Pla {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pla = Pla::new(inputs, outputs);
        for _ in 0..terms {
            let cube = random_cube(&mut rng, inputs);
            let o = 1u64 << rng.random_range(0..outputs);
            let (on, dc) = if rng.random_range(0..5u32) == 0 {
                (0, o)
            } else {
                (o, 0)
            };
            pla.push_term(cube, on, dc);
        }
        pla
    }

    fn random_cube(rng: &mut StdRng, inputs: usize) -> Cube {
        let (mut pos, mut neg) = (0u64, 0u64);
        for v in 0..inputs {
            match rng.random_range(0..3u32) {
                0 => pos |= 1 << v,
                1 => neg |= 1 << v,
                _ => {}
            }
        }
        Cube::new(pos, neg)
    }

    fn assert_same_instance(a: &UcpInstance, b: &UcpInstance) {
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.columns, b.columns);
        assert_eq!(a.matrix.num_cols(), b.matrix.num_cols());
        assert_eq!(a.matrix.rows(), b.matrix.rows());
        let bits = |m: &CoverMatrix| m.costs().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.matrix), bits(&b.matrix));
        assert_eq!((a.num_inputs, a.num_outputs), (b.num_inputs, b.num_outputs));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn column_major_rows_match_row_major(
            inputs in 1usize..=8,
            outputs in 1usize..=4,
            terms in 0usize..=24,
            seed in 0u64..u64::MAX,
        ) {
            let pla = random_pla(inputs, outputs, terms, seed);
            for cost in [TermCost::Products, TermCost::ProductsThenLiterals] {
                let got = build_covering_with(&pla, cost).unwrap();
                let want = build_covering_by(&pla, cost, covering_rows_row_major).unwrap();
                assert_same_instance(&got, &want);
            }
        }

        #[test]
        fn bdd_verify_matches_brute_force(
            inputs in 1usize..=10,
            outputs in 1usize..=3,
            terms in 1usize..=16,
            seed in 0u64..u64::MAX,
        ) {
            let pla = random_pla(inputs, outputs, terms, seed);
            let inst = build_covering(&pla).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            // The ON-set alone (always right); with one term dropped (wrong
            // when that term alone covers an ON-point); with a random cube
            // added (wrong when it reaches the OFF-set).
            let mut on_only = Pla::new(inputs, outputs);
            let mut dropped = Pla::new(inputs, outputs);
            let skip = rng.random_range(0..pla.terms().len());
            for (k, &(c, on, _)) in pla.terms().iter().enumerate() {
                if on != 0 {
                    on_only.push_term(c, on, 0);
                    if k != skip {
                        dropped.push_term(c, on, 0);
                    }
                }
            }
            let mut added = on_only.clone();
            let o = rng.random_range(0..outputs);
            added.push_term(random_cube(&mut rng, inputs), 1 << o, 0);
            prop_assert!(inst.verify_against(&pla, &on_only));
            for cand in [&dropped, &added] {
                prop_assert_eq!(inst.verify_against(&pla, cand), verify_brute(&pla, cand));
            }
        }
    }

    #[test]
    fn bdd_verify_rejects_both_kinds_of_error() {
        // f = x0 with x1 don't-care on the x0=0 half.
        let pla: Pla = ".i 2\n.o 1\n1- 1\n01 -\n.e\n".parse().unwrap();
        let inst = build_covering(&pla).unwrap();
        let ok: Pla = ".i 2\n.o 1\n-- 1\n.e\n".parse().unwrap();
        let too_small: Pla = ".i 2\n.o 1\n11 1\n.e\n".parse().unwrap();
        let too_big: Pla = ".i 2\n.o 1\n1- 1\n00 1\n.e\n".parse().unwrap();
        for (cand, want) in [
            (&pla, true),
            (&ok, false),
            (&too_small, false),
            (&too_big, false),
        ] {
            assert_eq!(verify_brute(&pla, cand), want);
            assert_eq!(inst.verify_against(&pla, cand), want);
        }
        let up_to_dc: Pla = ".i 2\n.o 1\n1- 1\n01 1\n.e\n".parse().unwrap();
        assert!(inst.verify_against(&pla, &up_to_dc));
    }
}

#[cfg(test)]
mod literal_cost_tests {
    use super::*;
    use crate::pla::Pla;

    #[test]
    fn literal_objective_breaks_ties_by_literals() {
        // ON = {11, 10}: both "1-" (1 literal) and the pair {11,10} cover it;
        // the one-product optimum is "1-"; with literal costs its column is
        // strictly cheaper than any narrower prime.
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 1\n.e\n".parse().unwrap();
        let inst = build_covering_with(&pla, TermCost::ProductsThenLiterals).unwrap();
        assert!(!inst.matrix.integer_costs());
        // Every cost is in (1, 2): a product still dominates any literal sum.
        for &c in inst.matrix.costs() {
            assert!(c > 1.0 && c < 2.0, "cost {c}");
        }
        // Wider cubes (fewer literals) are cheaper.
        let mut by_literals: Vec<(u32, f64)> = inst
            .columns
            .iter()
            .zip(inst.matrix.costs())
            .map(|((cube, _), &c)| (cube.literal_count(), c))
            .collect();
        by_literals.sort_by_key(|&(lits, _)| lits);
        for pair in by_literals.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + 1e-12);
        }
    }

    #[test]
    fn product_count_remains_primary() {
        use solvers_free_brute::brute_cover;
        let pla: Pla = ".i 3\n.o 1\n11- 1\n1-1 1\n011 1\n.e\n".parse().unwrap();
        let unit = build_covering(&pla).unwrap();
        let lex = build_covering_with(&pla, TermCost::ProductsThenLiterals).unwrap();
        let unit_opt = brute_cover(&unit.matrix);
        let lex_opt = brute_cover(&lex.matrix);
        // Same number of products in both optima.
        assert_eq!(unit_opt.len(), lex_opt.len());
    }

    /// Tiny local brute-force (kept here to avoid a dev-dependency cycle).
    mod solvers_free_brute {
        use cover::CoverMatrix;

        pub fn brute_cover(m: &CoverMatrix) -> Vec<usize> {
            let n = m.num_cols();
            assert!(n <= 20);
            let mut best: Option<(f64, u32)> = None;
            'mask: for mask in 0u32..(1 << n) {
                for row in m.rows() {
                    if !row.iter().any(|&j| mask >> j & 1 == 1) {
                        continue 'mask;
                    }
                }
                let cost: f64 = (0..n)
                    .filter(|&j| mask >> j & 1 == 1)
                    .map(|j| m.cost(j))
                    .sum();
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, mask));
                }
            }
            let (_, mask) = best.expect("coverable");
            (0..n).filter(|&j| mask >> j & 1 == 1).collect()
        }
    }
}
