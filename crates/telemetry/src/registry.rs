//! Named metrics with static label sets.
//!
//! Registration is get-or-create keyed on `(name, labels)` and takes
//! the registry lock; the returned `Arc` is the instrument itself, so
//! the hot path records through pre-fetched `Arc`s without ever
//! touching the registry again. Insertion order is preserved — exports
//! render metrics in the order they were first registered, with
//! same-name label variants grouped.

use crate::{Counter, Gauge, Histogram};
use std::sync::{Arc, Mutex};

/// Identity and metadata of one registered instrument.
#[derive(Debug, Clone)]
pub struct MetricId {
    /// Metric name (Prometheus-style, e.g. `sofos_serve_latency_us`).
    pub name: String,
    /// One-line help text (from the first registration of the name).
    pub help: String,
    /// Static label set, in registration order.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn matches(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (lk, lv))| k == lk && v == lv)
    }

    fn new(name: &str, help: &str, labels: &[(&str, &str)]) -> MetricId {
        MetricId {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// The instrument registry behind a [`crate::MetricsHandle`].
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(MetricId, Arc<Counter>)>,
    gauges: Vec<(MetricId, Arc<Gauge>)>,
    histograms: Vec<(MetricId, Arc<Histogram>)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create the counter `(name, labels)`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, c)) = inner
            .counters
            .iter()
            .find(|(id, _)| id.matches(name, labels))
        {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner
            .counters
            .push((MetricId::new(name, help, labels), Arc::clone(&c)));
        c
    }

    /// Get-or-create the gauge `(name, labels)`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(id, _)| id.matches(name, labels)) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        inner
            .gauges
            .push((MetricId::new(name, help, labels), Arc::clone(&g)));
        g
    }

    /// Get-or-create the histogram `(name, labels)`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, h)) = inner
            .histograms
            .iter()
            .find(|(id, _)| id.matches(name, labels))
        {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        inner
            .histograms
            .push((MetricId::new(name, help, labels), Arc::clone(&h)));
        h
    }

    /// Visit every registered counter in registration order.
    pub(crate) fn visit_counters(&self, mut f: impl FnMut(&MetricId, &Counter)) {
        let inner = self.inner.lock().expect("registry poisoned");
        for (id, c) in &inner.counters {
            f(id, c);
        }
    }

    /// Visit every registered gauge in registration order.
    pub(crate) fn visit_gauges(&self, mut f: impl FnMut(&MetricId, &Gauge)) {
        let inner = self.inner.lock().expect("registry poisoned");
        for (id, g) in &inner.gauges {
            f(id, g);
        }
    }

    /// Visit every registered histogram in registration order.
    pub(crate) fn visit_histograms(&self, mut f: impl FnMut(&MetricId, &Histogram)) {
        let inner = self.inner.lock().expect("registry poisoned");
        for (id, h) in &inner.histograms {
            f(id, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_is_identity_per_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("sofos_x_total", "x", &[("backend", "serial")]);
        let b = r.counter(
            "sofos_x_total",
            "ignored on re-register",
            &[("backend", "serial")],
        );
        let c = r.counter("sofos_x_total", "x", &[("backend", "epoch")]);
        a.inc();
        b.inc();
        c.inc();
        assert_eq!(a.get(), 2, "same (name, labels) is the same counter");
        assert_eq!(c.get(), 1);
        let mut seen = Vec::new();
        r.visit_counters(|id, counter| seen.push((id.labels.clone(), counter.get())));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, 2);
        assert_eq!(seen[1].1, 1);
    }

    #[test]
    fn three_instrument_kinds_coexist() {
        let r = Registry::new();
        r.counter("sofos_a_total", "a", &[]).add(5);
        r.gauge("sofos_b", "b", &[]).set(7);
        r.histogram("sofos_c_us", "c", &[]).record(11);
        let mut names = Vec::new();
        r.visit_counters(|id, _| names.push(id.name.clone()));
        r.visit_gauges(|id, _| names.push(id.name.clone()));
        r.visit_histograms(|id, _| names.push(id.name.clone()));
        assert_eq!(names, ["sofos_a_total", "sofos_b", "sofos_c_us"]);
    }
}
