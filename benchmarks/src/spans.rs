//! Spans of the traced run. They are recorded from the benchmark's own files
//! only, around its calls into the stack; they stay in memory while the
//! workload runs and are written as JSON lines when it ends.

use crate::engine::RawSpan;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Spans beyond this many are counted but not kept: the trace is for reading
/// a run, not for holding every op of a long one.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One op on one rank: a round of the workload's mix.
    Op,
    /// One member call of an op, by position in the mix.
    Call(u8),
    /// The interleaved unencrypted reference call.
    Plain,
    /// Client side of `sessions_churn`: admit → run → drop.
    Lifecycle,
    Admit,
    Run,
    /// Client side of `crash_recover`.
    RunCrashable,
}

pub struct Span {
    pub name: SpanName,
    pub parent: Option<u32>,
    /// Rank that recorded the span; `None` for the client thread.
    pub rank: Option<u32>,
    /// Op the span belongs to, counted over the whole run.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct TraceSink {
    spans: Vec<Span>,
    dropped: u64,
}

impl TraceSink {
    /// Records a span and returns its id, or `None` once the sink is full.
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Records one rank's spans of one world; member calls become children
    /// of their op's span, which becomes a child of `parent`.
    pub fn push_rank_spans(
        &mut self,
        rank: u32,
        op_base: u64,
        raw: &[RawSpan],
        parent: Option<u32>,
    ) {
        let span = |sink: &mut Self, r: &RawSpan, parent| {
            sink.push(Span {
                name: r.name,
                parent,
                rank: Some(rank),
                op: op_base + r.op as u64,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
            })
        };
        for op in raw.iter().filter(|r| r.name == SpanName::Op) {
            let op_id = span(self, op, parent);
            for call in raw
                .iter()
                .filter(|r| r.op == op.op && matches!(r.name, SpanName::Call(_)))
            {
                span(self, call, op_id);
            }
        }
        for plain in raw.iter().filter(|r| r.name == SpanName::Plain) {
            span(self, plain, parent);
        }
    }

    /// Writes the spans to `path` as JSON lines; `labels` name the mix.
    pub fn write(&self, path: &Path, labels: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let name = match s.name {
                SpanName::Op => "op".to_string(),
                SpanName::Call(i) => format!("call:{}", labels[i as usize]),
                SpanName::Plain => "call:MVAPICH".to_string(),
                SpanName::Lifecycle => "lifecycle".to_string(),
                SpanName::Admit => "admit".to_string(),
                SpanName::Run => "run".to_string(),
                SpanName::RunCrashable => "run_crashable".to_string(),
            };
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{name}\",\"rank\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.parent),
                opt(s.rank),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}
