//! The speech search tree (paper Figure 2, Algorithm 2 `ST.Expand`).
//!
//! The tree is generated **in its entirety** during preprocessing — an
//! unusual choice for MCTS that the paper justifies by the user-preference
//! bound on speech length: the tree's height is at most the fragment budget
//! and its size `O(m^k)` (Theorem A.4).
//!
//! Expansion reads a **candidate table** built once per query: the
//! refinements `SG.Refinements` offers an empty prefix, in that order, each
//! rendered once for its character count and compiled once into its
//! aggregate scope. Deeper prefixes are offered the same list minus the
//! candidates whose predicate set the path already uses, so expansion only
//! carries the body length and the path's candidates down the recursion:
//! the `SG.IsValid` length check costs one addition and one comparison per
//! node. A node's payload is the *increment* it adds to its parent's
//! speech — its baseline, or its candidate's table index with the additive
//! delta and implied value — so a path's belief mean for one aggregate is
//! recovered in `O(k)` by walking ancestors (Lemma A.2).
//!
//! A configurable node cap guards against degenerate configurations
//! (very large predicate pools with deep fragment budgets); hitting it
//! marks the tree as truncated in the planner statistics.

use voxolap_data::schema::Schema;
use voxolap_mcts::{NodeId, Tree};
use voxolap_speech::ast::{Baseline, Refinement, Speech};
use voxolap_speech::candidates::CandidateGenerator;
use voxolap_speech::constraints::SpeechConstraints;
use voxolap_speech::render::Renderer;
use voxolap_speech::scope::RefinementScope;

/// Payload of one search-tree node: the increment over the parent's speech.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// The root — represents the preamble, which carries no choices.
    Root,
    /// A baseline statement with its claimed value.
    Baseline(Baseline),
    /// A refinement with its additive delta (delta already accounts for
    /// reference chaining through subsuming ancestors, paper §3.4).
    Refinement {
        /// Index of the refinement in the tree's candidate table.
        candidate: u32,
        /// Additive change applied to in-scope aggregates.
        delta: f64,
        /// The aggregate value this refinement implies for its scope —
        /// the reference for chained finer refinements.
        implied_value: f64,
    },
}

/// One refinement candidate of the query, resolved once per tree.
#[derive(Debug)]
struct Candidate {
    ast: Refinement,
    scope: RefinementScope,
    /// Characters the refinement adds to a speech body: a space and its
    /// sentence.
    chars: usize,
    /// Index of the candidate's predicate set; a path uses each set once.
    predicates: u32,
}

/// The candidate table: `generator.refinements` of an empty prefix, in
/// order. The generator emits the change variants of one predicate set
/// as one contiguous run, so a set is numbered (and its scope compiled)
/// when the run starts.
fn candidate_table(generator: &CandidateGenerator<'_>, renderer: &Renderer<'_>) -> Vec<Candidate> {
    let schema = generator.schema();
    let layout = generator.query().layout();
    let mut table: Vec<Candidate> = Vec::new();
    for ast in generator.refinements(&Speech::baseline_only(0.0)) {
        let chars = 1 + renderer.refinement_sentence(&ast).chars().count();
        let (predicates, scope) = match table.last() {
            Some(prev) if prev.ast.predicates == ast.predicates => {
                (prev.predicates, prev.scope.clone())
            }
            prev => {
                debug_assert!(table.iter().all(|c| c.ast.predicates != ast.predicates));
                (
                    prev.map_or(0, |p| p.predicates + 1),
                    RefinementScope::compile(&ast, layout, schema),
                )
            }
        };
        table.push(Candidate { ast, scope, chars, predicates });
    }
    table
}

/// Depth-first expansion state: the tree under construction and the
/// refinements of the path being expanded.
struct Expansion<'t> {
    tree: Tree<NodeKind>,
    truncated: bool,
    candidates: &'t [Candidate],
    schema: &'t Schema,
    constraints: &'t SpeechConstraints,
    max_nodes: usize,
    /// Candidate index and implied value of each refinement on the path,
    /// outermost first.
    path: Vec<(u32, f64)>,
}

impl Expansion<'_> {
    /// `ST.Expand` below `node`, whose speech body is `len` characters
    /// long and opens with a baseline claiming `baseline`. The node cap is
    /// checked before validity, for every candidate the prefix does not
    /// already use.
    fn expand(&mut self, node: NodeId, baseline: f64, len: usize) {
        if self.path.len() >= self.constraints.max_refinements {
            return;
        }
        let candidates = self.candidates;
        // The reference value depends only on the path and the predicate
        // set, so it is resolved once per run of change variants.
        let mut resolved: Option<(u32, f64)> = None;
        for (idx, c) in candidates.iter().enumerate() {
            if self.path.iter().any(|&(p, _)| candidates[p as usize].predicates == c.predicates) {
                continue;
            }
            if self.tree.node_count() >= self.max_nodes {
                self.truncated = true;
                return;
            }
            let len = len + c.chars;
            if len > self.constraints.max_chars {
                continue;
            }
            let reference = match resolved {
                Some((set, value)) if set == c.predicates => value,
                _ => {
                    let value = self.reference(&c.ast, baseline);
                    resolved = Some((c.predicates, value));
                    value
                }
            };
            let implied = reference * c.ast.change.factor();
            let candidate = idx as u32;
            let child = self.tree.add_child(
                node,
                NodeKind::Refinement {
                    candidate,
                    delta: implied - reference,
                    implied_value: implied,
                },
            );
            self.path.push((candidate, implied));
            self.expand(child, baseline, len);
            self.path.pop();
        }
    }

    /// The reference value for a new refinement `r` extending the path:
    /// the implied value of the deepest path refinement whose scope
    /// subsumes `r`'s, or the baseline value.
    fn reference(&self, r: &Refinement, baseline: f64) -> f64 {
        let schema = self.schema;
        let is_anc =
            |dim: voxolap_data::DimId, a: voxolap_data::MemberId, d: voxolap_data::MemberId| {
                schema.dimension(dim).is_ancestor_or_self(a, d)
            };
        self.path
            .iter()
            .rev()
            .find(|&&(p, _)| self.candidates[p as usize].ast.subsumes(r, is_anc))
            .map_or(baseline, |&(_, implied)| implied)
    }
}

/// The belief-mean terms of one speech, collected once by
/// [`SpeechTree::mean_terms`] and evaluated per aggregate by
/// [`MeanTerms::mean`].
#[derive(Debug, Default)]
pub(crate) struct MeanTerms<'t> {
    /// Refinements deepest first: scope, the delta added in scope, and
    /// the amount subtracted out of scope (`None` when the scope covers
    /// every aggregate).
    refinements: Vec<(&'t RefinementScope, f64, Option<f64>)>,
    baseline: f64,
}

impl MeanTerms<'_> {
    /// [`SpeechTree::mean_for`] of the collected speech, bit for bit: the
    /// same operations in the same order.
    pub(crate) fn mean(&self, coords: &[u32]) -> f64 {
        let mut mean = 0.0;
        for &(scope, delta, outside) in &self.refinements {
            if scope.contains_coords(coords) {
                mean += delta;
            } else if let Some(outside) = outside {
                mean -= outside;
            }
        }
        mean + self.baseline
    }

    /// Fragments of the collected speech: the baseline and each refinement.
    pub(crate) fn fragment_count(&self) -> usize {
        1 + self.refinements.len()
    }
}

/// The fully expanded speech search tree for one query.
#[derive(Debug)]
pub struct SpeechTree {
    tree: Tree<NodeKind>,
    candidates: Vec<Candidate>,
    truncated: bool,
    n_aggs: usize,
}

impl SpeechTree {
    /// The root node (represents the preamble).
    pub const ROOT: NodeId = Tree::<NodeKind>::ROOT;

    /// Expand the full tree (`ST.Expand` from the root): one child per
    /// baseline candidate around `overall_estimate`, then recursively one
    /// child per valid refinement, bounded by `constraints` and `max_nodes`.
    pub fn build(
        generator: &CandidateGenerator<'_>,
        renderer: &Renderer<'_>,
        constraints: &SpeechConstraints,
        overall_estimate: f64,
        max_nodes: usize,
    ) -> Self {
        let candidates = candidate_table(generator, renderer);
        let mut x = Expansion {
            tree: Tree::new(NodeKind::Root),
            truncated: false,
            candidates: &candidates,
            schema: generator.schema(),
            constraints,
            max_nodes,
            path: Vec::with_capacity(constraints.max_refinements),
        };
        for b in generator.baselines(overall_estimate) {
            if x.tree.node_count() >= max_nodes {
                x.truncated = true;
                break;
            }
            let speech = Speech { baseline: b, refinements: Vec::new() };
            let len = renderer.baseline_sentence(&speech).chars().count();
            if len > constraints.max_chars {
                continue;
            }
            let node = x.tree.add_child(Self::ROOT, NodeKind::Baseline(b));
            x.expand(node, b.value, len);
        }
        let (tree, truncated) = (x.tree, x.truncated);
        SpeechTree {
            tree,
            candidates,
            truncated,
            n_aggs: generator.query().layout().n_aggregates(),
        }
    }

    fn candidate(&self, candidate: u32) -> &Candidate {
        &self.candidates[candidate as usize]
    }

    /// Reconstruct the speech a node represents by walking to the root.
    pub fn speech_at(&self, node: NodeId) -> Speech {
        let mut baseline = Baseline::point(0.0);
        let mut refinements = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            match self.tree.data(n) {
                NodeKind::Refinement { candidate, .. } => {
                    refinements.push(self.candidate(*candidate).ast.clone())
                }
                NodeKind::Baseline(b) => baseline = *b,
                NodeKind::Root => {}
            }
            cur = self.tree.parent(n);
        }
        refinements.reverse();
        Speech { baseline, refinements }
    }

    /// The aggregate scope of a refinement node (`None` for the root and
    /// baselines, which speak about every aggregate).
    pub(crate) fn scope(&self, node: NodeId) -> Option<&RefinementScope> {
        match self.tree.data(node) {
            NodeKind::Refinement { candidate, .. } => Some(&self.candidate(*candidate).scope),
            NodeKind::Root | NodeKind::Baseline(_) => None,
        }
    }

    /// Belief mean `M(a, t)` for the speech at `node` and the aggregate with
    /// decomposed coordinates `coords` — `O(k)` ancestor walk (Lemma A.2).
    pub fn mean_for(&self, node: NodeId, coords: &[u32]) -> f64 {
        let n = self.n_aggs as f64;
        let mut mean = 0.0;
        let mut cur = Some(node);
        while let Some(nid) = cur {
            match self.tree.data(nid) {
                NodeKind::Refinement { candidate, delta, .. } => {
                    let scope = &self.candidate(*candidate).scope;
                    let m = scope.size() as f64;
                    if scope.contains_coords(coords) {
                        mean += delta;
                    } else if m < n {
                        mean -= m * delta / (n - m);
                    }
                }
                NodeKind::Baseline(b) => mean += b.value,
                NodeKind::Root => {}
            }
            cur = self.tree.parent(nid);
        }
        mean
    }

    /// Collect the belief-mean terms of the speech at `node` into `out`
    /// (its buffer is reused), so that every aggregate's mean costs no
    /// further ancestor walk.
    pub(crate) fn mean_terms<'t>(&'t self, node: NodeId, out: &mut MeanTerms<'t>) {
        let n = self.n_aggs as f64;
        out.refinements.clear();
        out.baseline = 0.0;
        let mut cur = Some(node);
        while let Some(nid) = cur {
            match self.tree.data(nid) {
                NodeKind::Refinement { candidate, delta, .. } => {
                    let scope = &self.candidate(*candidate).scope;
                    let m = scope.size() as f64;
                    out.refinements.push((scope, *delta, (m < n).then(|| m * delta / (n - m))));
                }
                NodeKind::Baseline(b) => out.baseline = b.value,
                NodeKind::Root => {}
            }
            cur = self.tree.parent(nid);
        }
    }

    /// The sentence a node contributes when spoken (baseline or refinement
    /// sentence; the root has none).
    pub fn sentence(&self, node: NodeId, renderer: &Renderer<'_>) -> Option<String> {
        match self.tree.data(node) {
            NodeKind::Root => None,
            NodeKind::Baseline(b) => {
                let speech = Speech { baseline: *b, refinements: Vec::new() };
                Some(renderer.baseline_sentence(&speech))
            }
            NodeKind::Refinement { candidate, .. } => {
                Some(renderer.refinement_sentence(&self.candidate(*candidate).ast))
            }
        }
    }

    /// `true` if expansion hit the node cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Number of result aggregates (`n`).
    pub fn n_aggregates(&self) -> usize {
        self.n_aggs
    }

    /// Access the underlying UCT tree.
    pub fn tree(&self) -> &Tree<NodeKind> {
        &self.tree
    }

    /// Mutable access to the underlying UCT tree (for sampling updates).
    pub fn tree_mut(&mut self) -> &mut Tree<NodeKind> {
        &mut self.tree
    }

    /// All node ids, in creation order (root first).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.tree.node_count() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::{AggFct, Query};
    use voxolap_speech::candidates::CandidateConfig;
    use voxolap_speech::scope::CompiledSpeech;

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn build_tree(
        table: &voxolap_data::Table,
        q: &Query,
        constraints: SpeechConstraints,
        max_nodes: usize,
    ) -> SpeechTree {
        let schema = table.schema();
        let gen = CandidateGenerator::new(schema, q, CandidateConfig::default());
        let renderer = Renderer::new(schema, q);
        SpeechTree::build(&gen, &renderer, &constraints, 88.0, max_nodes)
    }

    #[test]
    fn tree_layers_follow_grammar() {
        let (table, q) = setup();
        let st = build_tree(
            &table,
            &q,
            SpeechConstraints { max_chars: 300, max_refinements: 1 },
            1_000_000,
        );
        assert!(!st.truncated());
        // Root children are baselines, grandchildren refinements.
        for &b in st.tree().children(SpeechTree::ROOT) {
            assert!(matches!(st.tree().data(b), NodeKind::Baseline(_)));
            for &r in st.tree().children(b) {
                assert!(matches!(st.tree().data(r), NodeKind::Refinement { .. }));
                assert!(st.tree().is_leaf(r), "fragment budget 1 stops here");
            }
        }
    }

    #[test]
    fn speech_at_reconstructs_path() {
        let (table, q) = setup();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 100_000);
        let b = st.tree().children(SpeechTree::ROOT)[0];
        let r = st.tree().children(b)[0];
        let speech = st.speech_at(r);
        assert_eq!(speech.refinements.len(), 1);
        match st.tree().data(b) {
            NodeKind::Baseline(base) => assert_eq!(speech.baseline.value, base.value),
            _ => unreachable!(),
        }
    }

    #[test]
    fn mean_for_matches_compiled_speech() {
        let (table, q) = setup();
        let schema = table.schema();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 50_000);
        let layout = q.layout();
        // Compare tree-incremental means with the reference CompiledSpeech
        // implementation for a sample of nodes.
        let mut checked = 0;
        for node in st.all_nodes().step_by(97) {
            let speech = st.speech_at(node);
            if node == SpeechTree::ROOT {
                continue;
            }
            let cs = CompiledSpeech::compile(&speech, layout, schema);
            for agg in 0..layout.n_aggregates() as u32 {
                let coords = layout.coords_of_agg(agg);
                let tree_mean = st.mean_for(node, &coords);
                let ref_mean = cs.mean_for(agg, layout);
                assert!(
                    (tree_mean - ref_mean).abs() < 1e-9,
                    "node {node:?} agg {agg}: {tree_mean} vs {ref_mean}"
                );
            }
            checked += 1;
        }
        assert!(checked > 3, "checked {checked} nodes");
    }

    #[test]
    fn mean_terms_reproduce_mean_for_bits() {
        let (table, q) = setup();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 50_000);
        let layout = q.layout();
        let mut terms = MeanTerms::default();
        for node in st.all_nodes().step_by(13) {
            st.mean_terms(node, &mut terms);
            assert_eq!(terms.fragment_count(), st.speech_at(node).fragment_count());
            for agg in 0..layout.n_aggregates() as u32 {
                let coords = layout.coords_of_agg(agg);
                let (terms, tree) = (terms.mean(&coords), st.mean_for(node, &coords));
                assert_eq!(terms.to_bits(), tree.to_bits(), "{node:?} agg {agg}");
            }
        }
    }

    #[test]
    fn node_cap_truncates() {
        let (table, q) = setup();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 50);
        assert!(st.truncated());
        assert!(st.tree().node_count() <= 51);
    }

    #[test]
    fn sentences_render_per_node_kind() {
        let (table, q) = setup();
        let schema = table.schema();
        let renderer = Renderer::new(schema, &q);
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 10_000);
        assert_eq!(st.sentence(SpeechTree::ROOT, &renderer), None);
        let b = st.tree().children(SpeechTree::ROOT)[0];
        assert!(st.sentence(b, &renderer).unwrap().contains("is the average"));
        let r = st.tree().children(b)[0];
        assert!(st.sentence(r, &renderer).unwrap().starts_with("Values "));
    }

    #[test]
    fn depth_respects_fragment_budget() {
        let (table, q) = setup();
        for budget in 0..=2 {
            let st = build_tree(
                &table,
                &q,
                SpeechConstraints { max_chars: 10_000, max_refinements: budget },
                2_000_000,
            );
            // Depth = 1 (baseline layer) + refinement budget.
            assert_eq!(st.tree().depth(SpeechTree::ROOT), 1 + budget);
        }
    }
}
