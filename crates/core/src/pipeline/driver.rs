//! The holistic engine's Plan/Sample → Commit driver.
//!
//! [`HolisticSource`] runs Algorithm 1's per-sentence round: sample while
//! the previous sentence plays (or until the progress floor), then commit
//! to the best-mean child and render it. With one worker the round runs
//! cooperatively on the calling thread; with more, it fans sampling out
//! over scoped worker threads (virtual-loss UCT descent against the
//! lock-free tree) while the calling thread paces against the voice.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use voxolap_data::schema::MeasureUnit;
use voxolap_engine::query::{AggIdx, ResultLayout};
use voxolap_engine::semantic::SemanticCache;
use voxolap_faults::RunState;
use voxolap_mcts::NodeId;
use voxolap_speech::render::Renderer;

use crate::holistic::HolisticConfig;
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::stream::{FinishInfo, SentenceSource};
use crate::resilience::{round_status, RoundEnd};
use crate::sampler::Sampler;
use crate::tree::SpeechTree;
use crate::uncertainty::{annotate, UncertaintyMode};
use crate::voice::VoiceOutput;

/// How long the pacing thread sleeps between `VO.IsPlaying` polls.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// The holistic engine's sentence source (see module docs).
pub(crate) struct HolisticSource<'a> {
    sampler: Sampler<'a>,
    tree: SpeechTree,
    renderer: Renderer<'a>,
    cfg: HolisticConfig,
    current: NodeId,
    samples: u64,
    /// Unit of the query's measure, for spoken confidence bounds.
    unit: MeasureUnit,
    /// Where the run's sample is admitted at finish (`None` = no cache).
    semantic: Option<Arc<SemanticCache>>,
    /// Per-run degrade state (`None` = no resilience attached).
    run: Option<Arc<RunState>>,
}

impl<'a> HolisticSource<'a> {
    pub(crate) fn new(
        sampler: Sampler<'a>,
        tree: SpeechTree,
        renderer: Renderer<'a>,
        cfg: HolisticConfig,
        unit: MeasureUnit,
        semantic: Option<Arc<SemanticCache>>,
        run: Option<Arc<RunState>>,
    ) -> Self {
        HolisticSource {
            sampler,
            tree,
            renderer,
            cfg,
            current: SpeechTree::ROOT,
            samples: 0,
            unit,
            semantic,
            run,
        }
    }

    /// One cooperative round on the calling thread: sample while the
    /// previously started sentence plays (plus the progress floor for
    /// instant voices). Checking the round status *first* in each
    /// iteration keeps the voice polling sequence — and therefore the
    /// sampling iteration count — fixed when the token never fires. An
    /// `Anytime` status ends the round to commit the best answer the tree
    /// holds right now. Returns `false` on a hard stop.
    fn sample_cooperatively(&mut self, voice: &mut dyn VoiceOutput, cancel: &CancelToken) -> bool {
        let run = self.run.as_deref();
        let at_root = self.current == SpeechTree::ROOT;
        let at_leaf = self.tree.tree().is_leaf(self.current);
        let mut iterations = 0u64;
        loop {
            match round_status(cancel, run, at_root, at_leaf) {
                RoundEnd::Stop => return false,
                RoundEnd::Anytime => return true,
                RoundEnd::Continue => {}
            }
            if !(voice.is_playing() || iterations < self.cfg.min_samples_per_sentence) {
                // A token firing between the last poll and the commit
                // still aborts cleanly.
                return round_status(cancel, run, at_root, at_leaf) != RoundEnd::Stop;
            }
            self.sampler.sample_once(&self.tree, self.current);
            self.samples += 1;
            iterations += 1;
        }
    }

    /// One multi-threaded round: every worker samples on its own scoped
    /// thread while the calling thread sleeps on voice output, then until
    /// the progress floor. Timing-dependent and not bit-reproducible.
    /// Returns `false` on a hard stop.
    fn sample_threaded(&mut self, voice: &mut dyn VoiceOutput, cancel: &CancelToken) -> bool {
        let stop = AtomicBool::new(false);
        let round = AtomicU64::new(0);
        let tree = &self.tree;
        let current = self.current;
        let run = self.run.as_deref();
        let exhausted = || run.is_some_and(|r| r.budget_exhausted());
        std::thread::scope(|scope| {
            for worker in self.sampler.workers.iter_mut() {
                let (stop, round) = (&stop, &round);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) && !cancel.fired() && !exhausted() {
                        worker.sample_once(tree, current, true);
                        round.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // An exhausted fault budget ends the round early so the
            // anytime path can commit whatever the tree holds.
            while !cancel.fired() && !exhausted() && voice.is_playing() {
                std::thread::sleep(POLL_INTERVAL);
            }
            let floor = self.cfg.min_samples_per_sentence;
            while !cancel.fired() && !exhausted() && round.load(Ordering::Relaxed) < floor {
                std::thread::sleep(POLL_INTERVAL);
            }
            stop.store(true, Ordering::Relaxed);
        });
        self.samples += round.load(Ordering::Relaxed);
        let at_leaf = self.tree.tree().is_leaf(current);
        round_status(cancel, run, current == SpeechTree::ROOT, at_leaf) != RoundEnd::Stop
    }

    /// Advance `current` to its best-mean child and render that sentence
    /// (with the configured uncertainty annotation); `None` when the walk
    /// is finished. Committed nodes are never the root, so
    /// `tree.sentence` is always `Some`; a `None` ends the speech instead
    /// of panicking.
    fn commit_and_render(&mut self) -> Option<String> {
        let tree = self.tree.tree();
        if tree.is_leaf(self.current) {
            return None;
        }
        let next = tree.best_child(self.current)?;
        let mut sentence = self.tree.sentence(next, &self.renderer)?;
        self.current = next;
        if !matches!(self.cfg.uncertainty, UncertaintyMode::Off) {
            let aggs = relevant_aggs(&self.tree, next, self.sampler.query().layout());
            let cache = self.sampler.cache();
            if let Some(extra) = annotate(self.cfg.uncertainty, cache, &aggs, self.unit) {
                sentence = format!("{sentence} {extra}");
            }
        }
        Some(sentence)
    }
}

/// The aggregates a node's sentence claims something about: all of them
/// for a baseline, the refinement scope otherwise. Used only for
/// uncertainty annotations.
fn relevant_aggs(tree: &SpeechTree, node: NodeId, layout: &ResultLayout) -> Vec<AggIdx> {
    let all = 0..layout.n_aggregates() as u32;
    match tree.scope(node) {
        None => all.collect(),
        Some(scope) => all.filter(|&a| scope.contains(a, layout)).collect(),
    }
}

impl<'a> SentenceSource<'a> for HolisticSource<'a> {
    fn next(&mut self, voice: &mut dyn VoiceOutput, cancel: &CancelToken) -> Option<String> {
        let proceed = if self.sampler.workers.len() == 1 {
            self.sample_cooperatively(voice, cancel)
        } else {
            self.sample_threaded(voice, cancel)
        };
        if !proceed {
            return None;
        }
        self.commit_and_render()
    }

    fn samples(&self) -> u64 {
        self.samples
    }

    fn rows_read(&self) -> u64 {
        self.sampler.rows_read()
    }

    fn finish(&mut self) -> FinishInfo {
        if let Some(semantic) = &self.semantic {
            self.sampler.admit(semantic);
        }
        FinishInfo {
            speech: Some(self.tree.speech_at(self.current)),
            tree_nodes: self.tree.tree().node_count(),
            truncated: self.tree.truncated(),
        }
    }
}
