//! Step timelines and device traces — the OmniTrace / rocm-smi substitute
//! behind the paper's Figs. 9 and 12.
//!
//! Two consumers share these timelines: the figure harnesses render
//! them as ASCII/series output, and [`record_chrome`] re-targets them
//! onto the unified `matgpt-obs` Chrome-trace emitter so the simulated
//! Fig. 9 step timeline, Fig. 12 power trace and Fig. 11 RCCL message
//! statistics land in the same `trace.json` / Prometheus registry as
//! *measured* trainer and serving telemetry — one viewer, one schema.

use crate::kernels::FlashVersion;
use crate::parallel::{StepReport, TrainSetup};
use crate::power::PowerModel;
use matgpt_model::count::layer_flops;
use matgpt_obs::{pids, Recorder, Registry, TraceEvent as ObsEvent};

/// What the device is doing during an interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Forward compute of one layer.
    Forward,
    /// Backward compute of one layer.
    Backward,
    /// Exposed communication (all-reduce etc.).
    Communication,
    /// Optimizer update / data movement.
    Io,
}

/// One timeline interval.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Start time within the step, seconds.
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
    /// Phase class.
    pub kind: PhaseKind,
    /// Layer index for compute phases.
    pub layer: Option<usize>,
}

impl TraceEvent {
    /// Interval duration.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Build the one-step timeline of Fig. 9: forward per layer, backward per
/// layer (with communication trailing the backward, as rocprof shows for
/// ZeRO), then IO/optimizer.
pub fn step_timeline(setup: &TrainSetup, report: &StepReport) -> Vec<TraceEvent> {
    // Shared with `simulate_step`: under `PipelineParallel` both price
    // the busiest `div_ceil` stage, so the timeline tiles the step
    // exactly even when `layers % p != 0`.
    let layers = setup.stage_layers();
    let fwd_total = report.compute_s / 3.0;
    let bwd_total = report.compute_s * 2.0 / 3.0;
    let fwd_layer = fwd_total / layers as f64;
    let bwd_layer = bwd_total / layers as f64;
    let mut t = 0.0;
    let mut events = Vec::with_capacity(2 * layers + 2);
    for l in 0..layers {
        events.push(TraceEvent {
            start_s: t,
            end_s: t + fwd_layer,
            kind: PhaseKind::Forward,
            layer: Some(l),
        });
        t += fwd_layer;
    }
    for l in (0..layers).rev() {
        events.push(TraceEvent {
            start_s: t,
            end_s: t + bwd_layer,
            kind: PhaseKind::Backward,
            layer: Some(l),
        });
        t += bwd_layer;
    }
    if report.comm_exposed_s > 0.0 {
        events.push(TraceEvent {
            start_s: t,
            end_s: t + report.comm_exposed_s,
            kind: PhaseKind::Communication,
            layer: None,
        });
        t += report.comm_exposed_s;
    }
    if report.io_s > 0.0 {
        events.push(TraceEvent {
            start_s: t,
            end_s: t + report.io_s,
            kind: PhaseKind::Io,
            layer: None,
        });
    }
    events
}

/// The Fig. 9 step timeline's phase ordering in the *measured* trace
/// analyzer's vocabulary ([`matgpt_obs::critical_path::PhaseClass`]),
/// deduplicated to its shape — normally forward → backward →
/// communication → io. This is the simulated reference a measured
/// critical path's `phase_order` is cross-checked against: the trainer
/// and the simulator describing the same step must agree on what
/// happens in what order, even though one is clocked and one is priced.
pub fn phase_order(
    setup: &TrainSetup,
    report: &StepReport,
) -> Vec<matgpt_obs::critical_path::PhaseClass> {
    use matgpt_obs::critical_path::PhaseClass;
    matgpt_obs::critical_path::dedup_order(step_timeline(setup, report).iter().map(
        |e| match e.kind {
            PhaseKind::Forward => PhaseClass::Forward,
            PhaseKind::Backward => PhaseClass::Backward,
            PhaseKind::Communication => PhaseClass::Communication,
            PhaseKind::Io => PhaseClass::Io,
        },
    ))
}

/// One kernel-class interval inside a single layer's forward pass — the
/// Fig. 9 "boxed snapshot" zoom.
#[derive(Clone, Debug)]
pub struct KernelSpan {
    /// Kernel class name (QKV, flash/score+AOV, Linproj, MLP, other).
    pub name: &'static str,
    /// Start offset within the layer, seconds.
    pub start_s: f64,
    /// End offset, seconds.
    pub end_s: f64,
}

/// Break one layer's forward time into kernel-class spans, priced with the
/// same efficiency model as the step simulation.
pub fn layer_zoom(setup: &TrainSetup) -> Vec<KernelSpan> {
    let km = &setup.kernel;
    let cfg = &setup.cfg;
    let f = layer_flops(cfg, setup.micro_batch, setup.seq);
    let peak = 191.5e12 * km.gemm_efficiency(cfg);
    let attn_eff = km.attention_rel_eff(cfg, setup.flash);
    let attn_name = if matches!(setup.flash, FlashVersion::None) {
        "score+AOV (naive)"
    } else {
        "flash attention"
    };
    let parts: [(&'static str, f64); 5] = [
        ("QKV", f.qkv / peak),
        (attn_name, (f.score + f.aov) / (peak * attn_eff)),
        ("Linproj", f.linproj / peak),
        ("MLP", f.mlp / peak),
        ("LN+DR+other", f.other / (peak * km.other_rel_eff)),
    ];
    let mut t = 0.0;
    parts
        .iter()
        .map(|&(name, dur)| {
            let span = KernelSpan {
                name,
                start_s: t,
                end_s: t + dur,
            };
            t += dur;
            span
        })
        .collect()
}

/// One sample of the rocm-smi-style device trace (Fig. 12).
#[derive(Clone, Debug)]
pub struct DeviceSample {
    /// Time, seconds.
    pub t_s: f64,
    /// MI250X power, watts.
    pub power_w: f64,
    /// Memory used, percent of HBM.
    pub memory_pct: f64,
    /// Reported GPU utilisation, percent.
    pub utilization_pct: f64,
}

/// Sample `n_steps` consecutive steps at interval `dt` — the power
/// oscillation between compute and communication phases emerges directly.
pub fn device_trace(
    setup: &TrainSetup,
    report: &StepReport,
    power: &PowerModel,
    n_steps: usize,
    dt: f64,
) -> Vec<DeviceSample> {
    let timeline = step_timeline(setup, report);
    let step_len = report.step_s;
    let mem_pct = (report.memory_gib / setup.machine.gcd_memory_gib * 100.0).min(100.0);
    let total = step_len * n_steps as f64;
    let mut out = Vec::with_capacity((total / dt) as usize + 1);
    let mut t = 0.0;
    while t < total {
        let within = t % step_len;
        let kind = timeline
            .iter()
            .find(|e| within >= e.start_s && within < e.end_s)
            .map(|e| e.kind)
            .unwrap_or(PhaseKind::Io);
        let power_w = match kind {
            PhaseKind::Forward | PhaseKind::Backward => power.compute_w,
            PhaseKind::Communication => power.comm_w,
            PhaseKind::Io => power.io_w,
        };
        // the paper notes utilisation pins near 100 % because comm kernels
        // also occupy the GPU — power is the honest signal
        let utilization_pct = match kind {
            PhaseKind::Io => 65.0,
            _ => 99.0,
        };
        out.push(DeviceSample {
            t_s: t,
            power_w,
            memory_pct: mem_pct,
            utilization_pct,
        });
        t += dt;
    }
    out
}

// ------------------------------------------------ matgpt-obs re-target

/// Track ids within the simulator's trace process ([`pids::SIM`]).
pub mod sim_tids {
    /// Fig. 9 step timeline (per-layer forward/backward, comm, io).
    pub const TIMELINE: u64 = 1;
    /// Fig. 12 rocm-smi-style power/utilisation samples.
    pub const POWER: u64 = 2;
}

impl PhaseKind {
    /// Chrome-trace event name for this phase class.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Forward => "forward",
            PhaseKind::Backward => "backward",
            PhaseKind::Communication => "comm (exposed)",
            PhaseKind::Io => "io/optimizer",
        }
    }
}

/// Map `n_steps` repetitions of the Fig. 9 step timeline onto
/// Chrome-trace complete events on the [`sim_tids::TIMELINE`] track,
/// starting at `t0_us` on the recorder timebase. Simulated seconds
/// become trace microseconds one-for-one, so a 1 s simulated step reads
/// as 1 s in the viewer.
pub fn chrome_step_events(
    setup: &TrainSetup,
    report: &StepReport,
    n_steps: usize,
    t0_us: f64,
) -> Vec<ObsEvent> {
    let timeline = step_timeline(setup, report);
    let step_us = report.step_s * 1e6;
    let mut out = Vec::with_capacity(timeline.len() * n_steps);
    for step in 0..n_steps {
        let base = t0_us + step as f64 * step_us;
        for e in &timeline {
            let mut ev = ObsEvent::complete(
                pids::SIM,
                sim_tids::TIMELINE,
                "sim.step",
                e.kind.label(),
                base + e.start_s * 1e6,
                e.duration() * 1e6,
            )
            .arg("step", step as f64);
            if let Some(layer) = e.layer {
                ev = ev.arg("layer", layer as f64);
            }
            out.push(ev);
        }
    }
    out
}

/// Map the Fig. 12 device trace onto the [`sim_tids::POWER`] track:
/// each rocm-smi sample becomes one `dt`-wide complete event carrying
/// `power_w` / `memory_pct` / `utilization_pct` args, so the power
/// oscillation is scrubbing-visible next to the step timeline.
pub fn chrome_power_events(
    setup: &TrainSetup,
    report: &StepReport,
    power: &PowerModel,
    n_steps: usize,
    dt: f64,
    t0_us: f64,
) -> Vec<ObsEvent> {
    device_trace(setup, report, power, n_steps, dt)
        .iter()
        .map(|s| {
            ObsEvent::complete(
                pids::SIM,
                sim_tids::POWER,
                "sim.power",
                "sample",
                t0_us + s.t_s * 1e6,
                dt * 1e6,
            )
            .arg("power_w", s.power_w)
            .arg("memory_pct", s.memory_pct)
            .arg("utilization_pct", s.utilization_pct)
        })
        .collect()
}

/// Publish the Fig. 11 RCCL message statistics and headline step costs
/// into a metrics registry: one `sim_rccl_calls_total` /
/// `sim_rccl_wire_bytes_total` counter series per collective, plus
/// step-time / throughput / memory gauges.
pub fn record_rccl_metrics(registry: &Registry, report: &StepReport) {
    for m in &report.msgs {
        let labels: &[(&str, &str)] = &[("collective", m.collective.name())];
        registry
            .counter_with(
                "sim_rccl_calls_total",
                labels,
                "simulated RCCL calls per step per GPU",
            )
            .add(m.calls as u64);
        registry
            .counter_with(
                "sim_rccl_wire_bytes_total",
                labels,
                "simulated RCCL wire bytes per step per GPU",
            )
            .add(m.wire_total() as u64);
    }
    registry
        .gauge("sim_step_seconds", "simulated end-to-end step seconds")
        .set(report.step_s);
    registry
        .gauge("sim_tflops_per_gcd", "simulated achieved TFLOPS per GCD")
        .set(report.tflops_per_gcd);
    registry
        .gauge(
            "sim_comm_exposed_seconds",
            "simulated exposed communication seconds per step",
        )
        .set(report.comm_exposed_s);
}

/// Record the whole simulated picture — Fig. 9 timeline, Fig. 12 power
/// trace, Fig. 11 RCCL counters — onto a shared recorder/registry pair,
/// alongside whatever measured trainer/serving telemetry they already
/// hold. Events are placed at the recorder's current time so simulated
/// tracks don't overlap earlier recorded spans.
pub fn record_chrome(
    recorder: &Recorder,
    registry: &Registry,
    setup: &TrainSetup,
    report: &StepReport,
    power: &PowerModel,
    n_steps: usize,
    dt: f64,
) {
    let t0 = recorder.now_us();
    recorder.set_track_name(
        pids::SIM,
        sim_tids::TIMELINE,
        format!("step timeline ({:?})", setup.strategy),
    );
    recorder.set_track_name(pids::SIM, sim_tids::POWER, "rocm-smi power");
    recorder.extend(chrome_step_events(setup, report, n_steps, t0));
    recorder.extend(chrome_power_events(setup, report, power, n_steps, dt, t0));
    record_rccl_metrics(registry, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{simulate_step, Strategy};
    use matgpt_model::{ArchKind, GptConfig};

    fn setup_67b() -> (TrainSetup, StepReport) {
        let s = TrainSetup::new(
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            256,
            Strategy::Zero1,
        );
        let r = simulate_step(&s);
        (s, r)
    }

    #[test]
    fn timeline_covers_step_without_gaps() {
        let (s, r) = setup_67b();
        let tl = step_timeline(&s, &r);
        for w in tl.windows(2) {
            assert!((w[0].end_s - w[1].start_s).abs() < 1e-9, "gap in timeline");
        }
        let total = tl.last().unwrap().end_s;
        assert!((total - r.step_s).abs() / r.step_s < 1e-6);
    }

    #[test]
    fn phase_order_matches_fig9_shape() {
        use matgpt_obs::critical_path::PhaseClass;
        let (s, r) = setup_67b();
        let order = phase_order(&s, &r);
        assert_eq!(order[..2], [PhaseClass::Forward, PhaseClass::Backward]);
        assert_eq!(*order.last().unwrap(), PhaseClass::Io, "io closes the step");
        assert!(
            order.len() <= 4,
            "dedup keeps at most one entry per class: {order:?}"
        );
    }

    #[test]
    fn timeline_has_forward_then_backward_per_layer() {
        let (s, r) = setup_67b();
        let tl = step_timeline(&s, &r);
        let fwd = tl.iter().filter(|e| e.kind == PhaseKind::Forward).count();
        let bwd = tl.iter().filter(|e| e.kind == PhaseKind::Backward).count();
        assert_eq!(fwd, 32);
        assert_eq!(bwd, 32);
        // backward walks layers in reverse
        let bwd_layers: Vec<usize> = tl
            .iter()
            .filter(|e| e.kind == PhaseKind::Backward)
            .map(|e| e.layer.unwrap())
            .collect();
        assert_eq!(bwd_layers[0], 31);
        assert_eq!(*bwd_layers.last().unwrap(), 0);
    }

    #[test]
    fn power_trace_oscillates_between_levels() {
        let (s, r) = setup_67b();
        let pm = PowerModel::default();
        let trace = device_trace(&s, &r, &pm, 3, r.step_s / 200.0);
        let max = trace.iter().map(|x| x.power_w).fold(0.0, f64::max);
        let min = trace
            .iter()
            .map(|x| x.power_w)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(max, pm.compute_w);
        assert!(min < pm.compute_w, "trace must dip during comm/io");
    }

    #[test]
    fn memory_is_flat_and_positive() {
        let (s, r) = setup_67b();
        let pm = PowerModel::default();
        let trace = device_trace(&s, &r, &pm, 2, r.step_s / 50.0);
        let first = trace[0].memory_pct;
        assert!(first > 10.0 && first <= 100.0);
        assert!(trace.iter().all(|x| (x.memory_pct - first).abs() < 1e-9));
    }

    #[test]
    fn layer_zoom_spans_are_contiguous_and_attention_dominated() {
        let (s, _) = setup_67b();
        let zoom = layer_zoom(&s);
        assert_eq!(zoom.len(), 5);
        for w in zoom.windows(2) {
            assert!((w[0].end_s - w[1].start_s).abs() < 1e-12);
        }
        // the flash span out-runs the small kernels at seq 2048 …
        let dur = |z: &[KernelSpan], name: &str| {
            let k = z.iter().find(|k| k.name == name).unwrap();
            k.end_s - k.start_s
        };
        assert!(dur(&zoom, "flash attention") > dur(&zoom, "LN+DR+other"));
        assert!(dur(&zoom, "flash attention") > dur(&zoom, "Linproj") * 0.3);
        // … and dominates every class at the longer contexts the paper's
        // Fig. 9 snapshot was taken in the regime of
        let mut long = s.clone();
        long.seq = 8192;
        long.cfg.max_seq = 8192;
        let zoom_long = layer_zoom(&long);
        for name in ["QKV", "Linproj", "LN+DR+other"] {
            assert!(
                dur(&zoom_long, "flash attention") > dur(&zoom_long, name),
                "{name} out-runs flash at seq 8192"
            );
        }
    }

    #[test]
    fn trace_length_matches_requested_steps() {
        let (s, r) = setup_67b();
        let pm = PowerModel::default();
        let dt = r.step_s / 100.0;
        let trace = device_trace(&s, &r, &pm, 4, dt);
        let expect = (4.0 * r.step_s / dt) as usize;
        assert!((trace.len() as i64 - expect as i64).abs() <= 2);
    }

    #[test]
    fn pipeline_remainder_layers_stay_consistent_with_pricing() {
        // 33 layers over PP=2 doesn't divide evenly: the busiest stage
        // holds div_ceil(33, 2) = 17 layers, and both `simulate_step`
        // and the timeline must agree on that count or the trace stops
        // tiling the priced step.
        let mut cfg = GptConfig::paper_6_7b(ArchKind::NeoX, 52_000);
        cfg.layers = 33;
        let s = TrainSetup::new(cfg, 256, Strategy::PipelineParallel(2));
        assert_eq!(s.stage_layers(), 17);
        let r = simulate_step(&s);
        let tl = step_timeline(&s, &r);
        let fwd = tl.iter().filter(|e| e.kind == PhaseKind::Forward).count();
        let bwd = tl.iter().filter(|e| e.kind == PhaseKind::Backward).count();
        assert_eq!(fwd, 17, "timeline must split over the div_ceil stage");
        assert_eq!(bwd, 17);
        for w in tl.windows(2) {
            assert!((w[0].end_s - w[1].start_s).abs() < 1e-9, "gap in timeline");
        }
        let total = tl.last().unwrap().end_s;
        assert!(
            (total - r.step_s).abs() / r.step_s < 1e-6,
            "timeline {total} drifted from priced step {}",
            r.step_s
        );
    }

    #[test]
    fn chrome_retarget_emits_valid_trace_and_rccl_counters() {
        let (s, r) = setup_67b();
        let pm = PowerModel::default();
        let rec = Recorder::new();
        rec.enable();
        let reg = Registry::new();
        record_chrome(&rec, &reg, &s, &r, &pm, 2, r.step_s / 40.0);

        let events = rec.snapshot();
        assert!(events.iter().all(|e| e.pid == pids::SIM));
        let timeline = events
            .iter()
            .filter(|e| e.tid == sim_tids::TIMELINE)
            .count();
        let power = events.iter().filter(|e| e.tid == sim_tids::POWER).count();
        assert_eq!(timeline, 2 * step_timeline(&s, &r).len());
        assert!(power > 0);

        let json = rec.to_chrome_json();
        let stats = matgpt_obs::chrome::validate(&json).expect("sim trace must validate");
        assert_eq!(stats.complete_events, events.len());
        assert_eq!(stats.tracks, 2);

        // ZeRO-1 issues all-gather + reduce-scatter traffic; the
        // counters must carry it with per-collective labels.
        let names = reg.names();
        assert!(names
            .iter()
            .any(|(n, k)| n == "sim_rccl_calls_total" && *k == matgpt_obs::MetricKind::Counter));
        assert!(names.iter().any(|(n, _)| n == "sim_step_seconds"));
        let text = matgpt_obs::prom::render(&reg);
        assert!(
            text.contains("collective=\"AllGather\"")
                || text.contains("collective=\"ReduceScatter\"")
        );
    }
}
