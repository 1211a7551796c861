//! Virtual-time events: one description of every occurrence on a rank.
//!
//! Each [`EventKind`] is what happened, with enough payload that
//! [`Metrics::add`](crate::Metrics::add) — the one function bumping the
//! paper's counters — folds it into the rank's metrics. When tracing is
//! enabled the rank also retains the stream, stamped in virtual time:
//! sends, receives, crypto operations, copies, barriers and the
//! zero-duration markers of faults, recovery and crashes. Traces feed the
//! overlap analyses in tests and can be rendered as a per-rank ASCII
//! timeline for debugging algorithm schedules.

use eag_crypto::CipherSuite;
use eag_netsim::{FaultKind, LinkClass, Rank};

/// What a traced interval was spent on, or what a marker records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Transmitting a message (occupancy on the sender).
    Send {
        /// Destination rank.
        dst: Rank,
        /// Wire bytes.
        bytes: usize,
        /// Payload bytes (wire bytes minus the AEAD framing).
        payload: usize,
        /// Link class traversed.
        link: LinkClass,
    },
    /// Waiting for and receiving a message.
    Recv {
        /// Source rank.
        src: Rank,
        /// Wire bytes.
        bytes: usize,
        /// Payload bytes (wire bytes minus the AEAD framing).
        payload: usize,
        /// Link class traversed.
        link: LinkClass,
    },
    /// Encrypting (sealing) plaintext.
    Encrypt {
        /// Plaintext bytes.
        bytes: usize,
    },
    /// Decrypting (opening) a ciphertext.
    Decrypt {
        /// Plaintext bytes recovered.
        bytes: usize,
    },
    /// A memory copy (shared-memory deposit/fetch or user-buffer placement).
    Copy {
        /// Bytes moved.
        bytes: usize,
    },
    /// A node-local barrier.
    Barrier,
    /// A fault injected into an outgoing frame (chaos runs only).
    /// Zero-duration marker: faults perturb the wire, not the clock.
    Fault {
        /// The kind of perturbation injected.
        kind: FaultKind,
        /// Destination of the perturbed frame.
        dst: Rank,
    },
    /// A corrupted or early frame detected on arrival (transport checksum,
    /// per-hop verification, or a sequence number past the stream's next).
    /// Zero-duration marker.
    Detect {
        /// The sender of the stream.
        src: Rank,
        /// Tag of the affected message stream.
        tag: u64,
    },
    /// A NACK issued by a receiver; `attempt` counts the receive's retry
    /// round (0 for a NACK triggered by a detection). Zero-duration marker.
    Nack {
        /// The peer asked to retransmit.
        peer: Rank,
        /// Tag of the affected message stream.
        tag: u64,
        /// Retry round.
        attempt: u32,
    },
    /// A frame retransmitted in answer to a NACK; `attempt` counts that
    /// frame's transmissions. Zero-duration marker: replays do not advance
    /// the clock.
    Retransmit {
        /// The peer the retransmission went to.
        peer: Rank,
        /// Tag of the affected message stream.
        tag: u64,
        /// Attempt number (1-based).
        attempt: u32,
        /// Wire bytes retransmitted.
        bytes: usize,
    },
    /// A duplicate frame dropped by sequence-number deduplication.
    /// Zero-duration marker.
    Duplicate {
        /// The sender of the stream.
        src: Rank,
        /// Tag of the affected message stream.
        tag: u64,
    },
    /// A rank died mid-collective. Recorded on the dying rank at its point
    /// of death, and on each survivor when its failure detector notices.
    /// Zero-duration marker.
    Crash {
        /// The rank that died.
        rank: Rank,
    },
    /// A survivor entered degraded recovery: the failed set was agreed and
    /// the collective re-runs over the shrunk group. Zero-duration marker.
    Recover {
        /// Number of surviving ranks in the shrunk group.
        survivors: usize,
    },
    /// The cipher suite this rank's transport seals frames under. Opens
    /// every traced timeline, at virtual time zero. Zero-duration marker.
    Suite {
        /// The configured suite.
        suite: CipherSuite,
    },
}

impl EventKind {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        self.legend().1
    }

    /// The Gantt glyph and the label of this kind of event.
    fn legend(&self) -> (char, &'static str) {
        match self {
            EventKind::Send { .. } => ('S', "send"),
            EventKind::Recv { .. } => ('r', "recv"),
            EventKind::Encrypt { .. } => ('E', "enc"),
            EventKind::Decrypt { .. } => ('D', "dec"),
            EventKind::Copy { .. } => ('c', "copy"),
            EventKind::Barrier => ('|', "barrier"),
            EventKind::Fault { .. } => ('X', "fault"),
            EventKind::Detect { .. } => ('!', "detect"),
            EventKind::Nack { .. } => ('N', "nack"),
            EventKind::Retransmit { .. } => ('R', "retransmit"),
            EventKind::Duplicate { .. } => ('~', "dup"),
            EventKind::Crash { .. } => ('#', "crash"),
            EventKind::Recover { .. } => ('+', "recover"),
            EventKind::Suite { .. } => ('@', "suite"),
        }
    }

    /// Whether this is a zero-duration marker rather than an interval of
    /// busy time.
    pub fn is_marker(&self) -> bool {
        !matches!(
            self,
            EventKind::Send { .. }
                | EventKind::Recv { .. }
                | EventKind::Encrypt { .. }
                | EventKind::Decrypt { .. }
                | EventKind::Copy { .. }
                | EventKind::Barrier
        )
    }
}

/// One traced interval on one rank's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time the activity started, µs.
    pub start_us: f64,
    /// Virtual time it ended, µs (clock value after the operation).
    pub end_us: f64,
    /// What the interval was spent on.
    pub kind: EventKind,
}

impl Event {
    /// Interval length in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A rank's recorded timeline.
pub type Trace = Vec<Event>;

/// Summed busy time per activity class: (send, recv-wait, enc, dec, copy,
/// barrier-wait) in µs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusyBreakdown {
    /// Transmission occupancy.
    pub send_us: f64,
    /// Receive waits (includes blocking on slower peers).
    pub recv_us: f64,
    /// Encryption time.
    pub enc_us: f64,
    /// Decryption time.
    pub dec_us: f64,
    /// Copy time.
    pub copy_us: f64,
    /// Barrier waits.
    pub barrier_us: f64,
}

impl BusyBreakdown {
    /// Aggregates a trace.
    pub fn of(trace: &Trace) -> BusyBreakdown {
        let mut b = BusyBreakdown::default();
        for e in trace {
            let d = e.duration_us();
            match e.kind {
                EventKind::Send { .. } => b.send_us += d,
                EventKind::Recv { .. } => b.recv_us += d,
                EventKind::Encrypt { .. } => b.enc_us += d,
                EventKind::Decrypt { .. } => b.dec_us += d,
                EventKind::Copy { .. } => b.copy_us += d,
                EventKind::Barrier => b.barrier_us += d,
                // Zero-duration markers: no busy time to attribute.
                _ => debug_assert!(e.kind.is_marker()),
            }
        }
        b
    }

    /// Total accounted time.
    pub fn total_us(&self) -> f64 {
        self.send_us + self.recv_us + self.enc_us + self.dec_us + self.copy_us + self.barrier_us
    }
}

/// Renders per-rank timelines as an ASCII Gantt chart (one row per rank,
/// `cols` character cells across the full duration).
pub fn render_gantt(traces: &[Trace], cols: usize) -> String {
    let horizon = traces
        .iter()
        .flat_map(|t| t.iter().map(|e| e.end_us))
        .fold(0.0f64, f64::max);
    if horizon <= 0.0 {
        return String::from("(empty trace)\n");
    }
    let mut out = String::new();
    out.push_str(&format!(
        "virtual time 0 .. {horizon:.2} µs ({cols} cells; S=send r=recv E=encrypt \
         D=decrypt c=copy |=barrier X=fault !=detect N=nack R=retransmit ~=dup \
         #=crash +=recover @=suite)\n"
    ));
    for (rank, trace) in traces.iter().enumerate() {
        let mut row = vec!['.'; cols];
        // Two passes: intervals first, then zero-duration markers, so a
        // marker is never hidden under the interval that starts at the
        // same instant (a faulted send begins exactly at the fault's
        // timestamp).
        for e in trace
            .iter()
            .filter(|e| !e.kind.is_marker())
            .chain(trace.iter().filter(|e| e.kind.is_marker()))
        {
            let a = (((e.start_us / horizon) * cols as f64).floor() as usize)
                .min(cols.saturating_sub(1));
            // Paint at least one cell: a zero-duration event whose start
            // lands exactly on a cell boundary has floor(start) ==
            // ceil(end) and would otherwise vanish from the chart.
            let b = ((((e.end_us / horizon) * cols as f64).ceil() as usize).min(cols)).max(a + 1);
            for cell in row.iter_mut().take(b).skip(a) {
                *cell = e.kind.legend().0;
            }
        }
        out.push_str(&format!("rank {rank:>4} "));
        out.extend(row);
        out.push('\n');
    }
    out
}

/// Serializes traces in the Chrome Trace Event format (the JSON accepted by
/// `chrome://tracing` and Perfetto): one complete ("X") event per traced
/// interval, one "thread" per rank. Timestamps are the virtual clocks in µs.
pub fn to_chrome_trace(traces: &[Trace]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (rank, trace) in traces.iter().enumerate() {
        for e in trace {
            if !first {
                out.push(',');
            }
            first = false;
            let args = match e.kind {
                EventKind::Send {
                    dst,
                    bytes,
                    payload,
                    link,
                } => format!(
                    "{{\"dst\":{dst},\"bytes\":{bytes},\"payload\":{payload},\"link\":\"{link:?}\"}}"
                ),
                EventKind::Recv {
                    src,
                    bytes,
                    payload,
                    link,
                } => format!(
                    "{{\"src\":{src},\"bytes\":{bytes},\"payload\":{payload},\"link\":\"{link:?}\"}}"
                ),
                EventKind::Encrypt { bytes }
                | EventKind::Decrypt { bytes }
                | EventKind::Copy { bytes } => format!("{{\"bytes\":{bytes}}}"),
                EventKind::Barrier => "{}".to_string(),
                EventKind::Fault { kind, dst } => {
                    format!("{{\"kind\":\"{}\",\"dst\":{dst}}}", kind.label())
                }
                EventKind::Detect { src, tag } | EventKind::Duplicate { src, tag } => {
                    format!("{{\"src\":{src},\"tag\":{tag}}}")
                }
                EventKind::Nack { peer, tag, attempt } => {
                    format!("{{\"peer\":{peer},\"tag\":{tag},\"attempt\":{attempt}}}")
                }
                EventKind::Retransmit {
                    peer,
                    tag,
                    attempt,
                    bytes,
                } => format!(
                    "{{\"peer\":{peer},\"tag\":{tag},\"attempt\":{attempt},\"bytes\":{bytes}}}"
                ),
                EventKind::Crash { rank } => format!("{{\"rank\":{rank}}}"),
                EventKind::Recover { survivors } => {
                    format!("{{\"survivors\":{survivors}}}")
                }
                EventKind::Suite { suite } => format!("{{\"suite\":\"{suite}\"}}"),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{args}}}",
                e.kind.label(),
                e.start_us,
                e.duration_us().max(0.0),
            ));
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: f64, end: f64, kind: EventKind) -> Event {
        Event {
            start_us: start,
            end_us: end,
            kind,
        }
    }

    fn recv(src: Rank, bytes: usize) -> EventKind {
        EventKind::Recv {
            src,
            bytes,
            payload: bytes,
            link: LinkClass::Inter,
        }
    }

    #[test]
    fn breakdown_sums_by_class() {
        let trace = vec![
            ev(0.0, 2.0, EventKind::Encrypt { bytes: 10 }),
            ev(
                2.0,
                5.0,
                EventKind::Send {
                    dst: 1,
                    bytes: 10,
                    payload: 10,
                    link: LinkClass::Inter,
                },
            ),
            ev(5.0, 9.0, recv(1, 10)),
            ev(9.0, 10.0, EventKind::Decrypt { bytes: 10 }),
        ];
        let b = BusyBreakdown::of(&trace);
        assert_eq!(b.enc_us, 2.0);
        assert_eq!(b.send_us, 3.0);
        assert_eq!(b.recv_us, 4.0);
        assert_eq!(b.dec_us, 1.0);
        assert_eq!(b.total_us(), 10.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let traces = vec![
            vec![ev(0.0, 5.0, EventKind::Encrypt { bytes: 1 })],
            vec![ev(5.0, 10.0, recv(0, 1))],
        ];
        let s = render_gantt(&traces, 10);
        assert!(s.contains("rank    0"));
        assert!(s.contains('E'));
        assert!(s.contains('r'));
    }

    #[test]
    fn gantt_handles_empty() {
        assert_eq!(render_gantt(&[], 10), "(empty trace)\n");
    }

    #[test]
    fn gantt_keeps_zero_duration_marker_on_cell_boundary() {
        // A fault at t=5 of horizon 10 with 10 cells lands exactly on the
        // boundary between cells 4 and 5: floor(5/10*10) == ceil(5/10*10)
        // == 5, so the unclamped painter dropped the marker entirely.
        let traces = vec![vec![
            ev(0.0, 10.0, recv(1, 8)),
            ev(
                5.0,
                5.0,
                EventKind::Fault {
                    kind: FaultKind::Drop,
                    dst: 1,
                },
            ),
        ]];
        let s = render_gantt(&traces, 10);
        assert!(s.contains('X'), "fault marker missing:\n{s}");
    }

    #[test]
    fn gantt_marker_at_horizon_end_stays_in_bounds() {
        // Zero-duration retransmit exactly at the horizon: must clamp into
        // the last cell instead of painting past the row (or not at all).
        let traces = vec![vec![
            ev(0.0, 10.0, EventKind::Barrier),
            ev(
                10.0,
                10.0,
                EventKind::Retransmit {
                    peer: 0,
                    tag: 1,
                    attempt: 1,
                    bytes: 64,
                },
            ),
        ]];
        let s = render_gantt(&traces, 10);
        let row = s.lines().nth(1).unwrap();
        assert!(
            row.ends_with('R'),
            "retransmit marker not in last cell: {row:?}"
        );
    }

    #[test]
    fn gantt_marker_not_hidden_under_coincident_interval() {
        // The faulted send starts at the fault's own timestamp; the marker
        // must still be visible (painted after intervals).
        let traces = vec![vec![
            ev(
                2.0,
                2.0,
                EventKind::Fault {
                    kind: FaultKind::Tamper,
                    dst: 1,
                },
            ),
            ev(
                2.0,
                8.0,
                EventKind::Send {
                    dst: 1,
                    bytes: 64,
                    payload: 36,
                    link: LinkClass::Intra,
                },
            ),
        ]];
        let s = render_gantt(&traces, 10);
        assert!(s.contains('X'), "fault hidden under send:\n{s}");
        assert!(s.contains('S'));
    }

    #[test]
    fn gantt_paints_crash_and_recover_markers() {
        // A crash at the very end of rank 1's timeline and a recover marker
        // mid-way through rank 0's: both zero-duration, both must survive
        // the two-pass painter (crash lands on the horizon boundary).
        let traces = vec![
            vec![
                ev(0.0, 10.0, recv(1, 8)),
                ev(6.0, 6.0, EventKind::Recover { survivors: 3 }),
            ],
            vec![
                ev(
                    0.0,
                    4.0,
                    EventKind::Send {
                        dst: 0,
                        bytes: 8,
                        payload: 8,
                        link: LinkClass::Inter,
                    },
                ),
                ev(4.0, 4.0, EventKind::Crash { rank: 1 }),
            ],
        ];
        let s = render_gantt(&traces, 10);
        assert!(s.contains('#'), "crash marker missing:\n{s}");
        assert!(s.contains('+'), "recover marker missing:\n{s}");
        assert!(s.contains("#=crash"), "legend missing crash glyph:\n{s}");
    }

    #[test]
    fn crash_and_recover_markers_carry_no_busy_time() {
        let trace = vec![
            ev(1.0, 1.0, EventKind::Crash { rank: 2 }),
            ev(2.0, 2.0, EventKind::Recover { survivors: 7 }),
        ];
        assert_eq!(BusyBreakdown::of(&trace).total_us(), 0.0);
        let json = to_chrome_trace(&[trace]);
        assert!(json.contains("\"name\":\"crash\""));
        assert!(json.contains("\"rank\":2"));
        assert!(json.contains("\"survivors\":7"));
    }

    #[test]
    fn suite_marker_is_zero_cost_and_rendered() {
        let trace = vec![
            ev(
                0.0,
                0.0,
                EventKind::Suite {
                    suite: CipherSuite::AesGcmSiv128,
                },
            ),
            ev(0.0, 4.0, EventKind::Encrypt { bytes: 32 }),
        ];
        assert_eq!(BusyBreakdown::of(&trace).total_us(), 4.0);
        let s = render_gantt(std::slice::from_ref(&trace), 10);
        assert!(s.contains('@'), "suite marker missing:\n{s}");
        let json = to_chrome_trace(&[trace]);
        assert!(json.contains("\"suite\":\"aes-gcm-siv\""));
    }

    #[test]
    fn labels() {
        assert_eq!(EventKind::Barrier.label(), "barrier");
        assert_eq!(EventKind::Encrypt { bytes: 0 }.label(), "enc");
        assert_eq!(
            EventKind::Fault {
                kind: FaultKind::Drop,
                dst: 1
            }
            .label(),
            "fault"
        );
        assert_eq!(
            EventKind::Nack {
                peer: 0,
                tag: 7,
                attempt: 1
            }
            .label(),
            "nack"
        );
        assert_eq!(EventKind::Duplicate { src: 0, tag: 7 }.label(), "dup");
    }

    #[test]
    fn fault_and_retry_markers_carry_no_busy_time() {
        let trace = vec![
            ev(
                1.0,
                1.0,
                EventKind::Fault {
                    kind: FaultKind::Tamper,
                    dst: 2,
                },
            ),
            ev(1.5, 1.5, EventKind::Detect { src: 2, tag: 4 }),
            ev(
                2.0,
                2.0,
                EventKind::Nack {
                    peer: 2,
                    tag: 4,
                    attempt: 1,
                },
            ),
            ev(
                2.5,
                2.5,
                EventKind::Retransmit {
                    peer: 2,
                    tag: 4,
                    attempt: 2,
                    bytes: 92,
                },
            ),
            ev(3.0, 3.0, EventKind::Duplicate { src: 2, tag: 4 }),
        ];
        assert!(trace.iter().all(|e| e.kind.is_marker()));
        assert_eq!(BusyBreakdown::of(&trace).total_us(), 0.0);
        let s = render_gantt(std::slice::from_ref(&trace), 30);
        for glyph in ['X', '!', 'N', 'R', '~'] {
            assert!(
                s.lines().nth(1).unwrap().contains(glyph),
                "{glyph} missing:\n{s}"
            );
        }
        let json = to_chrome_trace(&[trace]);
        assert!(json.contains("\"kind\":\"tamper\""));
        assert!(json.contains("\"attempt\":1"));
        assert!(json.contains("\"attempt\":2,\"bytes\":92"));
        assert!(json.contains("\"name\":\"detect\""));
        assert!(json.contains("\"name\":\"dup\""));
    }
}

#[cfg(test)]
mod chrome_tests {
    use super::*;

    #[test]
    fn chrome_trace_is_wellformed() {
        let traces = vec![
            vec![Event {
                start_us: 0.0,
                end_us: 2.5,
                kind: EventKind::Encrypt { bytes: 64 },
            }],
            vec![Event {
                start_us: 1.0,
                end_us: 3.0,
                kind: EventKind::Send {
                    dst: 0,
                    bytes: 92,
                    payload: 64,
                    link: LinkClass::Inter,
                },
            }],
        ];
        let json = to_chrome_trace(&traces);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"enc\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"dur\":2.000"));
        // Balanced braces (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_trace_empty() {
        assert_eq!(to_chrome_trace(&[]), "[]");
    }
}
