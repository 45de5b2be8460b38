//! The traced run: the same trials driven call by call through the public
//! `Pipeline` API, with one span per call and the substrate's own counters
//! diffed around it. Nothing inside the program is instrumented; every
//! number here is read at a public boundary.

use std::fmt::Write as _;
use std::time::Instant;

use explframe_core::{AttackError, AttackOutcome, AttackReport, Pipeline};
use machine::SimMachine;

use crate::stats::ratio;
use crate::workload::{Driver, Prepared};
use crate::Metric;

/// Declares [`Counters`] from one list of fields, so reading, diffing and
/// naming them cannot drift apart.
macro_rules! counters {
    ($($field:ident: $read:expr,)*) => {
        /// A reading of every counter the substrate exposes.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// Reads every counter of `m`.
            pub fn take(m: &SimMachine) -> Self {
                Counters { $($field: $read(m),)* }
            }

            /// What changed since `before`.
            pub fn since(&self, before: &Self) -> Self {
                Counters { $($field: self.$field.saturating_sub(before.$field),)* }
            }

            /// Adds `other` field by field.
            pub fn add(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }

            /// Every field with its name.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

counters! {
    sim_ns: |m: &SimMachine| m.now(),
    page_faults: |m: &SimMachine| m.stats().page_faults,
    reads: |m: &SimMachine| m.stats().reads,
    writes: |m: &SimMachine| m.stats().writes,
    hammer_pairs: |m: &SimMachine| m.stats().hammer_pairs,
    tlb_lookups: |m: &SimMachine| m.tlb().stats().lookups,
    tlb_misses: |m: &SimMachine| m.tlb().stats().misses,
    tlb_invalidations: |m: &SimMachine| m.tlb().stats().invalidations,
    dram_acts: |m: &SimMachine| m.dram().stats().acts,
    dram_row_hits: |m: &SimMachine| m.dram().stats().row_hits,
    dram_reads: |m: &SimMachine| m.dram().stats().reads,
    dram_writes: |m: &SimMachine| m.dram().stats().writes,
    dram_flips: |m: &SimMachine| m.dram().stats().flips,
    dram_hammer_pairs: |m: &SimMachine| m.dram().stats().hammer_pairs,
    dram_refs: |m: &SimMachine| m.dram().stats().refs,
    dram_rfm_commands: |m: &SimMachine| m.dram().stats().rfm_commands,
    allocs: |m: &SimMachine| m.allocator().zones().iter().map(|z| z.stats().allocs).sum::<u64>(),
    pcp_hits: |m: &SimMachine| m.allocator().zones().iter().map(|z| z.stats().pcp_hits).sum::<u64>(),
    pcp_refills: |m: &SimMachine| m.allocator().zones().iter().map(|z| z.stats().pcp_refills).sum::<u64>(),
    pcp_drains: |m: &SimMachine| m.allocator().zones().iter().map(|z| z.stats().pcp_drains).sum::<u64>(),
}

/// One call, timed on the host clock and with the counters it moved.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub trial: u64,
    /// Index of the enclosing span; `None` for a trial's root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub delta: Counters,
}

/// Host time of each span not covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Collects spans in memory for the whole run.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    trial: u64,
    root: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            trial: 0,
            root: 0,
        }
    }

    fn clock(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` on the pipeline as one span under the current trial.
    fn call<T>(
        &mut self,
        pipe: &mut Pipeline<'_, '_>,
        name: &'static str,
        f: impl FnOnce(&mut Pipeline<'_, '_>) -> T,
    ) -> T {
        let before = Counters::take(pipe.split().0);
        let start_ns = self.clock();
        let out = f(pipe);
        let end_ns = self.clock();
        let delta = Counters::take(pipe.split().0).since(&before);
        self.spans.push(Span {
            name,
            trial: self.trial,
            parent: Some(self.root),
            start_ns,
            end_ns,
            delta,
        });
        out
    }

    /// Runs trial `t` of `prep` as trial `id` of the trace: a root span
    /// over the fork and the whole attack, and a child span per call.
    pub fn trial(
        &mut self,
        prep: &mut Prepared,
        t: u64,
        id: u64,
    ) -> Result<AttackReport, AttackError> {
        let start_ns = self.clock();
        let mut machine = prep.warm(t).0.fork();
        let before = Counters::take(&machine);
        self.trial = id;
        self.root = self.spans.len();
        self.spans.push(Span {
            name: "trial",
            trial: id,
            parent: None,
            start_ns,
            end_ns: start_ns,
            delta: Counters::default(),
        });
        let result = self.drive(prep, t, &mut machine);
        let root = self.root;
        self.spans[root].end_ns = self.clock();
        self.spans[root].delta = Counters::take(&machine).since(&before);
        result
    }

    /// The attack driver's five-phase loop, call by call.
    fn drive(
        &mut self,
        prep: &mut Prepared,
        t: u64,
        machine: &mut SimMachine,
    ) -> Result<AttackReport, AttackError> {
        let config = prep.trial_config(t);
        let (victim, max_rounds) = (config.victim, config.max_fault_rounds);
        let escalate_to = Prepared::escalation(&config);
        let driver = prep.workload.driver;
        let mut pipe = Pipeline::new(&mut *machine, config);
        let outcome = 'run: {
            let pool = self.call(&mut pipe, "template", |p| match driver {
                Driver::Memo => {
                    let (warm, memo) = prep.warm(t);
                    p.template_memo_at(warm, memo)
                }
                Driver::Adaptive => p.template_adaptive(escalate_to),
            })?;
            let mut remaining = self.call(&mut pipe, "select", |p| p.select(&pool, victim));
            if remaining.is_empty() {
                break 'run AttackOutcome::NoUsableTemplates;
            }
            while pipe.counters().fault_rounds < max_rounds {
                let next = self.call(&mut pipe, "next_template", |p| {
                    p.next_template(&mut remaining, victim)
                });
                let Some(template) = next else { break };
                let released = self.call(&mut pipe, "release", |p| p.release(&pool, template))?;
                let steered = self.call(&mut pipe, "steer", |p| p.steer(&released))?;
                let service = steered.victim;
                if !self.call(&mut pipe, "hammer", |p| p.hammer(&pool, &steered))? {
                    self.call(&mut pipe, "stop_victim", |p| p.stop_victim(service))?;
                    continue;
                }
                let faulted = self.call(&mut pipe, "collect", |p| p.collect(steered))?;
                let recovered = self.call(&mut pipe, "analyze", |p| p.analyze(faulted))?;
                self.call(&mut pipe, "stop_victim", |p| p.stop_victim(service))?;
                if recovered.is_some() {
                    break 'run AttackOutcome::KeyRecovered;
                }
            }
            AttackOutcome::OutOfTemplates
        };
        let before = Counters::take(pipe.split().0);
        let start_ns = self.clock();
        let report = pipe.finish(outcome);
        let end_ns = self.clock();
        self.spans.push(Span {
            name: "finish",
            trial: self.trial,
            parent: Some(self.root),
            start_ns,
            end_ns,
            delta: Counters::take(machine).since(&before),
        });
        Ok(report)
    }

    /// The spans as a JSON array, one object per span with its self time
    /// and every counter it moved.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"trial\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}",
                span.name, span.trial, span.start_ns, span.end_ns
            );
            for (name, value) in span.delta.fields() {
                let _ = write!(out, ", \"{name}\": {value}");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push(']');
        out
    }
}

/// The attack phases whose self time and simulated time are reported.
pub const PHASES: [&str; 6] = [
    "template", "release", "steer", "hammer", "collect", "analyze",
];

/// Per-layer metrics of a traced run, as means per trial. `memo_hits` is
/// how many template calls the memo served, `reports` are the traced
/// trials' reports, and `overhead_ratio` is traced over untraced trials/s.
pub fn layer_metrics(
    spans: &[Span],
    reports: &[AttackReport],
    memo_hits: u64,
    overhead_ratio: f64,
) -> Vec<Metric> {
    let self_ns = self_times(spans);
    let mut host = [0u64; PHASES.len()];
    let mut calls = [0u64; PHASES.len()];
    let mut phase = [Counters::default(); PHASES.len()];
    let mut trial = Counters::default();
    let mut trials = 0u64;
    for (span, ns) in spans.iter().zip(self_ns) {
        if span.parent.is_none() {
            trials += 1;
            trial.add(&span.delta);
        } else if let Some(i) = PHASES.iter().position(|&p| p == span.name) {
            host[i] += ns;
            calls[i] += 1;
            phase[i].add(&span.delta);
        }
    }
    let n = trials as f64;
    let per_trial = |v: u64| v as f64 / n.max(1.0);
    let (template, collect) = (0, 4);
    let sum = |f: fn(&AttackReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;

    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    for (i, name) in PHASES.iter().enumerate() {
        push(
            &format!("core.{name}.host_ms"),
            per_trial(host[i]) / 1e6,
            "ms",
        );
    }
    for (i, name) in PHASES.iter().enumerate() {
        push(
            &format!("core.{name}.sim_ms"),
            per_trial(phase[i].sim_ns) / 1e6,
            "ms",
        );
    }
    push(
        "core.template.memo_hit_rate",
        ratio(memo_hits as f64, calls[template] as f64),
        "ratio",
    );
    push(
        "core.template.usable_ratio",
        ratio(
            sum(|r| r.usable_templates as u64),
            sum(|r| r.templates_found as u64),
        ),
        "ratio",
    );
    push(
        "core.steer.success_ratio",
        ratio(
            sum(|r| u64::from(r.steering_successes)),
            sum(|r| u64::from(r.fault_rounds)),
        ),
        "ratio",
    );
    push(
        "core.collect.ciphertexts_per_round",
        ratio(sum(|r| r.ciphertexts_collected), calls[collect] as f64),
        "ciphertexts",
    );
    for (i, name) in [(template, "template"), (collect, "collect")] {
        push(
            &format!("machine.{name}.reads"),
            per_trial(phase[i].reads),
            "count",
        );
        push(
            &format!("machine.{name}.writes"),
            per_trial(phase[i].writes),
            "count",
        );
    }
    push("machine.page_faults", per_trial(trial.page_faults), "count");
    push(
        "machine.hammer_pairs",
        per_trial(trial.hammer_pairs),
        "pairs",
    );
    push(
        "machine.collect.host_ns_per_read",
        ratio(host[collect] as f64, phase[collect].reads as f64),
        "ns",
    );
    push(
        "cachesim.tlb.lookups",
        per_trial(trial.tlb_lookups),
        "count",
    );
    push("cachesim.tlb.misses", per_trial(trial.tlb_misses), "count");
    push(
        "cachesim.tlb.hit_rate",
        ratio(
            trial.tlb_lookups.saturating_sub(trial.tlb_misses) as f64,
            trial.tlb_lookups as f64,
        ),
        "ratio",
    );
    push(
        "cachesim.tlb.invalidations",
        per_trial(trial.tlb_invalidations),
        "count",
    );
    for (i, name) in [(template, "template"), (collect, "collect")] {
        push(
            &format!("dram.{name}.accesses"),
            per_trial(phase[i].dram_acts + phase[i].dram_row_hits),
            "count",
        );
    }
    push(
        "dram.row_hit_rate",
        ratio(
            trial.dram_row_hits as f64,
            (trial.dram_acts + trial.dram_row_hits) as f64,
        ),
        "ratio",
    );
    push("dram.reads", per_trial(trial.dram_reads), "count");
    push("dram.writes", per_trial(trial.dram_writes), "count");
    push("dram.flips", per_trial(trial.dram_flips), "count");
    push(
        "dram.hammer_pairs",
        per_trial(trial.dram_hammer_pairs),
        "pairs",
    );
    push("dram.refs", per_trial(trial.dram_refs), "count");
    push(
        "dram.rfm_commands",
        per_trial(trial.dram_rfm_commands),
        "count",
    );
    push(
        "dram.template.host_ns_per_pair",
        ratio(
            host[template] as f64,
            phase[template].dram_hammer_pairs as f64,
        ),
        "ns",
    );
    push("memsim.allocs", per_trial(trial.allocs), "count");
    push("memsim.pcp_hits", per_trial(trial.pcp_hits), "count");
    push("memsim.pcp_refills", per_trial(trial.pcp_refills), "count");
    push("memsim.pcp_drains", per_trial(trial.pcp_drains), "count");
    push("trace.overhead_ratio", overhead_ratio, "ratio");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            trial: 0,
            parent,
            start_ns,
            end_ns,
            delta: Counters::default(),
        }
    }

    #[test]
    fn self_time_is_span_minus_its_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 45),
            // A grandchild counts against its parent, not the root.
            span(Some(1), 12, 20),
            // Overlapping and out-of-order siblings are covered once.
            span(Some(0), 44, 60),
            span(Some(0), 90, 120),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 20 - 20 - 10, 12, 5, 8, 16, 30]
        );
    }

    #[test]
    fn counter_deltas_cover_exactly_the_phase() {
        use machine::MachineConfig;
        use memsim::CpuId;

        let mut m = SimMachine::new(MachineConfig::small(3));
        let pid = m.spawn(CpuId(0));
        let buf = m.mmap(pid, 4).expect("map four pages");
        m.write(pid, buf, &[0xAB])
            .expect("first write faults the page in");
        let before = Counters::take(&m);
        let mut byte = [0u8];
        m.read(pid, buf, &mut byte).expect("read back");
        assert_eq!(byte, [0xAB]);
        m.write(pid, buf + 1, &[0xCD]).expect("second write");
        let delta = Counters::take(&m).since(&before);
        assert_eq!((delta.reads, delta.writes, delta.page_faults), (1, 1, 0));
        assert_eq!(delta.since(&delta), Counters::default());
        let mut total = delta;
        total.add(&delta);
        assert_eq!(total.reads, 2);
        assert!(delta
            .fields()
            .iter()
            .any(|&(name, v)| name == "writes" && v == 1));
    }
}
