//! Point-in-time snapshots and their one rendering, the Prometheus text
//! exposition format (`# HELP` / `# TYPE` lines, escaped label values,
//! histograms as `summary` quantiles plus `_sum` / `_count`).

use crate::events::Event;
use crate::histogram::HistogramSnapshot;
use crate::registry::Registry;
use crate::EventRing;
use std::fmt::Write as _;

/// One counter at snapshot time.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Static labels.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Static labels.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram at snapshot time.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Static labels.
    pub labels: Vec<(String, String)>,
    /// Bucket snapshot (count / sum / max / quantiles).
    pub snapshot: HistogramSnapshot,
}

/// A consistent-enough-for-monitoring view of every registered metric
/// and the recent events, taken by [`crate::MetricsHandle::snapshot`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// All counters, registration order.
    pub counters: Vec<CounterSample>,
    /// All gauges, registration order.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, registration order.
    pub histograms: Vec<HistogramSample>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring before this snapshot.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Read every instrument in `registry` plus the event ring.
    pub(crate) fn capture(registry: &Registry, events: &EventRing) -> MetricsSnapshot {
        let mut counters = Vec::new();
        registry.visit_counters(|id, c| {
            counters.push(CounterSample {
                name: id.name.clone(),
                help: id.help.clone(),
                labels: id.labels.clone(),
                value: c.get(),
            })
        });
        let mut gauges = Vec::new();
        registry.visit_gauges(|id, g| {
            gauges.push(GaugeSample {
                name: id.name.clone(),
                help: id.help.clone(),
                labels: id.labels.clone(),
                value: g.get(),
            })
        });
        let mut histograms = Vec::new();
        registry.visit_histograms(|id, h| {
            histograms.push(HistogramSample {
                name: id.name.clone(),
                help: id.help.clone(),
                labels: id.labels.clone(),
                snapshot: h.snapshot(),
            })
        });
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events: events.recent(),
            events_dropped: events.dropped(),
        }
    }

    /// The value of the counter `(name, labels)`, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && labels_match(&c.labels, labels))
            .map(|c| c.value)
    }

    /// The value of the gauge `(name, labels)`, if registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && labels_match(&g.labels, labels))
            .map(|g| g.value)
    }

    /// The histogram `(name, labels)`, if registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.name == name && labels_match(&h.labels, labels))
    }

    /// Render the Prometheus text exposition format. Counters and
    /// gauges map directly; histograms render as `summary` metrics
    /// (`quantile` labels plus `_sum` and `_count` series). Samples of
    /// the same metric name are grouped under one `# TYPE` header.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for_each_name_group(
            &self.counters,
            |c| (&c.name, &c.help),
            |name, help, group| {
                let _ = writeln!(out, "# HELP {name} {}", help_escape(help));
                let _ = writeln!(out, "# TYPE {name} counter");
                for c in group {
                    let _ = writeln!(out, "{name}{} {}", labels_prom(&c.labels, &[]), c.value);
                }
            },
        );
        for_each_name_group(
            &self.gauges,
            |g| (&g.name, &g.help),
            |name, help, group| {
                let _ = writeln!(out, "# HELP {name} {}", help_escape(help));
                let _ = writeln!(out, "# TYPE {name} gauge");
                for g in group {
                    let _ = writeln!(out, "{name}{} {}", labels_prom(&g.labels, &[]), g.value);
                }
            },
        );
        for_each_name_group(
            &self.histograms,
            |h| (&h.name, &h.help),
            |name, help, group| {
                let _ = writeln!(out, "# HELP {name} {}", help_escape(help));
                let _ = writeln!(out, "# TYPE {name} summary");
                for h in group {
                    let s = &h.snapshot;
                    for (q, v) in [
                        ("0.5", s.p50()),
                        ("0.9", s.p90()),
                        ("0.95", s.p95()),
                        ("0.99", s.p99()),
                    ] {
                        let _ = writeln!(
                            out,
                            "{name}{} {v}",
                            labels_prom(&h.labels, &[("quantile", q)])
                        );
                    }
                    let _ = writeln!(out, "{name}_sum{} {}", labels_prom(&h.labels, &[]), s.sum);
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        labels_prom(&h.labels, &[]),
                        s.count
                    );
                }
            },
        );
        out
    }
}

/// Group consecutive same-name samples (the registry preserves
/// registration order, so label variants of one metric are adjacent in
/// first-seen name order).
fn for_each_name_group<'a, T>(
    samples: &'a [T],
    key: impl Fn(&'a T) -> (&'a String, &'a String),
    mut emit: impl FnMut(&str, &str, &[&'a T]),
) {
    let mut seen: Vec<&str> = Vec::new();
    for sample in samples {
        let (name, help) = key(sample);
        if seen.iter().any(|s| s == name) {
            continue;
        }
        seen.push(name);
        let group: Vec<&T> = samples
            .iter()
            .filter(|other| key(other).0 == name)
            .collect();
        emit(name, help, &group);
    }
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((k, v), (wk, wv))| k == wk && v == wv)
}

/// Escape a Prometheus label *value*: backslash, double-quote, newline.
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text: backslash and newline only (per the format).
fn help_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `{k="v",…}` rendering with `extra` labels appended; empty label sets
/// render as nothing.
fn labels_prom(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_escape(v));
    }
    for (k, v) in extra {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_escape(v));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use crate::{EventKind, MetricsHandle};

    fn populated() -> MetricsHandle {
        let m = MetricsHandle::new();
        m.counter(
            "sofos_route_hits_total",
            "view-route hits",
            &[("backend", "serial")],
        )
        .add(3);
        m.counter(
            "sofos_route_hits_total",
            "view-route hits",
            &[("backend", "epoch")],
        )
        .add(4);
        m.gauge("sofos_pending_depth", "pending-log depth", &[])
            .set(7);
        let h = m.histogram(
            "sofos_serve_latency_us",
            "serve latency",
            &[("route", "view")],
        );
        h.record_all(&[10, 20, 30]);
        m.event(99, EventKind::Flush, "drained 2 batches");
        m
    }

    #[test]
    fn prometheus_text_has_type_lines_and_grouped_samples() {
        let text = populated().snapshot().to_prometheus_text();
        assert!(
            text.contains("# TYPE sofos_route_hits_total counter"),
            "{text}"
        );
        // Both label variants sit under one header.
        let header_count = text
            .matches("# TYPE sofos_route_hits_total counter")
            .count();
        assert_eq!(header_count, 1, "{text}");
        assert!(
            text.contains("sofos_route_hits_total{backend=\"serial\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("sofos_route_hits_total{backend=\"epoch\"} 4"),
            "{text}"
        );
        assert!(text.contains("# TYPE sofos_pending_depth gauge"), "{text}");
        assert!(text.contains("sofos_pending_depth 7"), "{text}");
        assert!(
            text.contains("# TYPE sofos_serve_latency_us summary"),
            "{text}"
        );
        assert!(
            text.contains("sofos_serve_latency_us{route=\"view\",quantile=\"0.5\"} 20"),
            "{text}"
        );
        assert!(
            text.contains("sofos_serve_latency_us_sum{route=\"view\"} 60"),
            "{text}"
        );
        assert!(
            text.contains("sofos_serve_latency_us_count{route=\"view\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let m = MetricsHandle::new();
        m.counter("sofos_weird_total", "odd \\ help", &[("q", "a\"b\\c\nd")])
            .inc();
        let text = m.snapshot().to_prometheus_text();
        assert!(
            text.contains("sofos_weird_total{q=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("# HELP sofos_weird_total odd \\\\ help"),
            "{text}"
        );
    }

    #[test]
    fn snapshot_finders_locate_samples() {
        let snap = populated().snapshot();
        assert_eq!(
            snap.counter_value("sofos_route_hits_total", &[("backend", "epoch")]),
            Some(4)
        );
        assert_eq!(snap.gauge_value("sofos_pending_depth", &[]), Some(7));
        let h = snap
            .histogram("sofos_serve_latency_us", &[("route", "view")])
            .expect("registered");
        assert_eq!(h.snapshot.count, 3);
        assert_eq!(snap.counter_value("missing", &[]), None);
        assert_eq!(snap.events.len(), 1);
    }
}
