//! The harness's own host-time spans: one per call it makes into a
//! layer (setup → deploy, warmup; measure → 250 ms chunks; drain;
//! check; one per drill). Spans stay in memory and are written once, at
//! exit, as Chrome `trace_event` JSON (load at `ui.perfetto.dev` or
//! `chrome://tracing`). Recording inside the measured crates is a later
//! change; this is measurement from outside.

use std::time::Instant;

use crate::json::Json;

/// One closed or still-open span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the harness was doing.
    pub name: String,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created (`start_us` while
    /// still open).
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Id shared by every span of one workload run.
    pub run: u32,
}

/// In-memory span recorder with a nesting stack.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }
}

impl Spans {
    /// Starts a new run id; spans opened from now on carry it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.into(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in
    /// seconds.
    ///
    /// # Panics
    /// Panics if no span is open — an unbalanced `exit` is a harness bug.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without a matching enter");
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[i].end_us = now;
        (now - self.spans[i].start_us) / 1e6
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Self time per span name, seconds, largest first: a span's
    /// duration minus what its direct children cover, summed over the
    /// spans of that name (`rung:…` and `drill:…` spans fold onto their
    /// prefix).
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: Vec<(String, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let own = ((s.end_us - s.start_us) - c).max(0.0) / 1e6;
            let name = s.name.split(':').next().unwrap_or(&s.name);
            match by_name.iter_mut().find(|(n, _)| n == name) {
                Some((_, t)) => *t += own,
                None => by_name.push((name.to_owned(), own)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// The spans as a Chrome `trace_event` document: complete (`X`)
    /// events on one thread per run, parent index and run id in `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.run as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("run", Json::Num(s.run as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("displayTimeUnit", Json::str("ms")), ("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut s = Spans::default();
        s.next_run();
        s.enter("outer");
        s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = s.exit();
        let outer = s.exit();
        assert!(inner >= 0.002 && outer >= inner);
        let own = s.self_time_by_name();
        let of = |n: &str| own.iter().find(|(name, _)| name == n).unwrap().1;
        assert!((of("inner") - inner).abs() < 1e-9);
        assert!((of("outer") - (outer - inner)).abs() < 1e-9);
        let doc = s.chrome_trace();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].get("args").unwrap().get("parent").unwrap().as_f64(), Some(0.0));
    }
}
