//! Host-time spans recorded around the benchmark's calls into the
//! program, for the traced run only.
//!
//! [`Timed`] wraps a [`PushdownWorkload`] and records one span per
//! callback the kernel makes into it (`core.*` spans, keyed by the
//! chain's [`ChainToken::id`] where the callback has one). The trial
//! code records `kernel.build` around session construction and
//! `kernel.run` around the run loop. Spans stay in memory, capped at
//! [`SPAN_KEEP`]; the image and callback totals keep counting past it.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use bpfstor_core::{OpSpec, PushdownWorkload, ReadSpec, SessionError, Verdict};
use bpfstor_kernel::{ChainStatus, ChainToken, UserNext};
use bpfstor_sim::SimRng;
use bpfstor_vm::Program;

/// Spans kept for the span dump; later spans only feed the totals.
pub const SPAN_KEEP: usize = 50_000;

/// Where a span's time belongs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Session or group construction, image build included.
    Build,
    /// `PushdownWorkload::build_image` (the B-tree / SSTable builders).
    Image,
    /// One closed-loop or io_uring run.
    Run,
    /// A workload callback made from inside a run.
    App,
}

impl Layer {
    fn parent(self) -> &'static str {
        match self {
            Layer::Build | Layer::Run => "",
            Layer::Image => "kernel.build",
            Layer::App => "kernel.run",
        }
    }
}

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name, `<crate>.<call>`.
    pub name: &'static str,
    /// Layer the span is charged to.
    pub layer: Layer,
    /// The chain's token id, or 0 for a span outside any chain.
    pub chain: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// The span store shared by the trial code and every [`Timed`] wrapper.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    kept: Vec<Span>,
    dropped: u64,
    totals: LayerTotals,
}

/// A tracer shared between the trial code and the workload wrappers.
pub type Shared = Rc<RefCell<Tracer>>;

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            kept: Vec::new(),
            dropped: 0,
            totals: LayerTotals::default(),
        }))
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        chain: u64,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        match layer {
            Layer::Image => self.totals.image_ns += end_ns - start_ns,
            Layer::App => self.totals.app_ns += end_ns - start_ns,
            Layer::Build | Layer::Run => {}
        }
        if self.kept.len() < SPAN_KEEP {
            self.kept.push(Span {
                name,
                layer,
                chain,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Nanoseconds recorded in the child layers since the last call,
    /// then zeroes the totals.
    pub fn take_totals(&mut self) -> LayerTotals {
        std::mem::take(&mut self.totals)
    }

    /// Writes the kept spans as JSON lines, then one line with the
    /// number of spans past the cap.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for s in &self.kept {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"chain\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.layer.parent(),
                s.chain,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        out.flush()
    }
}

/// Host nanoseconds of the child layers over one trial (the trial
/// itself times the build and the run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Image builders, inside construction.
    pub image_ns: u64,
    /// Workload callbacks, inside the run loop.
    pub app_ns: u64,
}

/// A [`PushdownWorkload`] that records a span around every call the
/// program makes into it. It changes no input or output, so a traced
/// run simulates exactly what an untraced one does.
pub struct Timed<W> {
    inner: W,
    tracer: Shared,
}

impl<W> Timed<W> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: W, tracer: &Shared) -> Self {
        Timed {
            inner,
            tracer: Rc::clone(tracer),
        }
    }

    fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        chain: u64,
        f: impl FnOnce(&mut W) -> R,
    ) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        let end = Instant::now();
        self.tracer
            .borrow_mut()
            .record(name, layer, chain, start, end);
        r
    }
}

impl<W: PushdownWorkload> PushdownWorkload for Timed<W> {
    type Request = W::Request;
    type Output = W::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build_image(&mut self) -> Result<Vec<u8>, SessionError> {
        self.span("core.build_image", Layer::Image, 0, |w| w.build_image())
    }

    fn program(&self) -> Program {
        self.inner.program()
    }

    fn install_flags(&self) -> u32 {
        self.inner.install_flags()
    }

    fn first_read(&mut self, req: &Self::Request) -> ReadSpec {
        self.span("core.first_read", Layer::App, 0, |w| w.first_read(req))
    }

    fn first_op(&mut self, req: &Self::Request) -> OpSpec {
        self.span("core.first_op", Layer::App, 0, |w| w.first_op(req))
    }

    fn next_request(&mut self, rng: &mut SimRng) -> Option<Self::Request> {
        self.span("core.next_request", Layer::App, 0, |w| w.next_request(rng))
    }

    fn user_step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        self.span("core.user_step", Layer::App, token.id, |w| {
            w.user_step(token, data)
        })
    }

    fn decode(
        &mut self,
        token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<Self::Output>, SessionError> {
        self.span("core.decode", Layer::App, token.id, |w| {
            w.decode(token, status)
        })
    }

    fn check(&self, token: &ChainToken, out: Option<&Self::Output>) -> Verdict {
        let start = Instant::now();
        let v = self.inner.check(token, out);
        let end = Instant::now();
        self.tracer
            .borrow_mut()
            .record("core.check", Layer::App, token.id, start, end);
        v
    }

    fn release(&mut self, token: &ChainToken) {
        self.span("core.release", Layer::App, token.id, |w| w.release(token))
    }
}
