//! Host speed, and times converted to a fixed reference speed.
//!
//! A shared host runs the same code at speeds up to about 1.6 times
//! apart, changing from one stretch of seconds or minutes to the next,
//! and the program's own time cannot tell those stretches from a change
//! in the program. So the benchmark reads the host's speed between the
//! steps it times: it runs a fixed piece of reference work, which no
//! change to the repository can alter, and converts each step's wall
//! time to the time it would have taken while the reference work takes
//! [`REFERENCE_NS`].

use crate::measure::{median, now_ns};
use std::collections::VecDeque;
use std::fmt::Write;

/// The reference work's time, ns, at reference speed: its fast
/// readings on the machine whose measurements `main.rs` records, so
/// that times there read as wall time while the host runs fast.
pub const REFERENCE_NS: f64 = 100_000.0;

/// Passes per reading. The first warms the caches the measured program
/// left cold; the fastest pass is the reading, so that neither the
/// program's footprint nor an interrupt during one pass counts.
const PASSES: usize = 3;

/// Nodes and out-degree of the reference work's fixed graph.
const NODES: usize = 4000;
const DEGREE: usize = 8;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

/// The reference work: a little of each kind of work the program does —
/// sorting, walking a graph breadth-first and formatting and parsing
/// numbers — on buffers allocated once, so that it never touches the
/// allocator the program shares.
struct Reference {
    graph: Vec<[u32; DEGREE]>,
    keys: Vec<u64>,
    seen: Vec<bool>,
    queue: VecDeque<u32>,
    text: String,
}

impl Reference {
    fn new() -> Self {
        let mut s = 5;
        let graph = (0..NODES)
            .map(|_| std::array::from_fn(|_| (lcg(&mut s) % NODES as u64) as u32))
            .collect();
        Reference {
            graph,
            keys: Vec::with_capacity(2048),
            seen: vec![false; NODES],
            queue: VecDeque::with_capacity(NODES),
            text: String::with_capacity(64),
        }
    }

    /// One pass; returns its wall time, ns.
    fn pass(&mut self) -> u64 {
        let start = now_ns();
        let mut s = 7;
        self.keys.clear();
        self.keys.extend((0..2048).map(|_| lcg(&mut s)));
        self.keys.sort_unstable();

        self.seen.fill(false);
        self.queue.push_back(0);
        self.seen[0] = true;
        let mut acc = 0.0;
        while let Some(u) = self.queue.pop_front() {
            acc += f64::from(u).sqrt();
            for &v in &self.graph[u as usize] {
                if !self.seen[v as usize] {
                    self.seen[v as usize] = true;
                    self.queue.push_back(v);
                }
            }
        }

        let mut sum = 0u64;
        for _ in 0..300 {
            let x = lcg(&mut s);
            self.text.clear();
            let _ = write!(self.text, "{x:016x} {}", x % 100_000);
            let (hex, dec) = self.text.split_once(' ').unwrap_or_default();
            let parsed = u64::from_str_radix(hex, 16).unwrap_or(0);
            sum = sum.wrapping_add(parsed) ^ dec.parse::<u64>().unwrap_or(0);
        }
        std::hint::black_box((&self.keys, acc, sum));
        now_ns() - start
    }

    /// A reading: the fastest of [`PASSES`] passes, ns.
    fn read(&mut self) -> u64 {
        (0..PASSES).map(|_| self.pass()).min().unwrap_or(0)
    }
}

/// `ns` of wall time at reference speed, given the reference work's
/// readings right before and right after it.
pub fn at_reference_speed(ns: u64, before: u64, after: u64) -> u64 {
    let reading = (before + after) as f64 / 2.0;
    (ns as f64 * REFERENCE_NS / reading.max(1.0)).round() as u64
}

/// Converts timed steps to reference speed, reading the host's speed
/// between them.
pub struct Speed {
    reference: Reference,
    /// The latest reading: the one right before the next step.
    last: u64,
    readings: Vec<u64>,
    /// Wall time spent reading, ns.
    spent_ns: u64,
}

impl Speed {
    /// Takes the first reading.
    pub fn new() -> Self {
        let start = now_ns();
        let mut reference = Reference::new();
        let last = reference.read();
        Speed {
            reference,
            last,
            readings: vec![last],
            spent_ns: now_ns() - start,
        }
    }

    /// A step of `ns` wall time that ended just now, at reference speed.
    /// Call it as soon as the step ends.
    pub fn scale(&mut self, ns: u64) -> u64 {
        let start = now_ns();
        let now = self.reference.read();
        let out = at_reference_speed(ns, self.last, now);
        self.last = now;
        self.readings.push(now);
        self.spent_ns += now_ns() - start;
        out
    }

    /// Wall time spent reading the host's speed, ns.
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// The median reading as a multiple of [`REFERENCE_NS`]: how much
    /// slower than reference speed the host ran.
    pub fn slowdown(&self) -> f64 {
        let xs: Vec<f64> = self.readings.iter().map(|&ns| ns as f64).collect();
        median(&xs) / REFERENCE_NS
    }
}
