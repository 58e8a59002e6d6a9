//! Simulation configuration.
//!
//! The defaults model the paper's testbed: Dell SC1435 nodes (2× dual-core
//! AMD Opteron 2.0 GHz, 4 GB RAM) connected by an HP ProCurve 2900-48G
//! gigabit switch with a 0.1 ms round-trip time, and OCZ-VERTEX3 SSDs for
//! the experiments with disk writes. The CPU cost constants are calibrated
//! so that (a) a single sender saturates a gigabit link, (b) the M-Ring
//! Paxos coordinator peaks near 88% CPU at ~900 Mbps (thesis Table 3.3),
//! and (c) synchronous 32 KB disk writes sustain ~270 Mbps (§3.5.5).

use crate::time::Dur;

/// Cluster-wide simulation parameters. Construct with [`SimConfig::default`]
/// and override individual fields per experiment.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the simulation's deterministic random number generator.
    pub seed: u64,
    /// Full-duplex link bandwidth of every node, in bits per second.
    pub link_bandwidth_bps: u64,
    /// One-way network latency (propagation plus switch transit).
    pub one_way_latency: Dur,
    /// Maximum transmission unit of the network, in bytes.
    pub mtu_bytes: u32,
    /// Per-MTU-frame header overhead on the wire (Ethernet + IP + UDP).
    pub frame_overhead_bytes: u32,
    /// Number of CPU cores per node.
    pub cores_per_node: usize,
    /// CPU cost of one send system call (per datagram, regardless of size).
    pub send_syscall_cost: Dur,
    /// CPU cost per KiB on the send path (copy + fragmentation + UDP stack).
    pub send_ns_per_kib: u64,
    /// CPU cost of receiving one MTU frame (interrupt + kernel path).
    pub recv_frame_cost: Dur,
    /// CPU cost per KiB on the receive path.
    pub recv_ns_per_kib: u64,
    /// Capacity of each UDP socket receive buffer, in bytes.
    pub udp_socket_buffer: u32,
    /// Effective TCP window per connection, in bytes (models the socket
    /// buffer size divided by the congestion-control headroom).
    pub tcp_window_bytes: u32,
    /// Buffer of the switch egress port feeding each node's downlink, in
    /// bytes. Datagrams arriving when the port queue exceeds this are
    /// dropped (tail drop). TCP traffic is exempt (flow controlled).
    pub switch_port_buffer: u32,
    /// Probability that any UDP datagram copy is lost in transit, for
    /// failure-injection experiments. Zero by default.
    pub random_loss: f64,
    /// Probability that any UDP datagram copy is held back in the switch
    /// for a few extra latencies, arriving *after* datagrams sent later
    /// (reorder injection). Zero by default.
    pub random_reorder: f64,
    /// Probability that the switch delivers an extra copy of a UDP
    /// datagram (duplication injection). Zero by default.
    pub random_duplication: f64,
    /// Raw sequential bandwidth of the node-local SSD, in bits per second.
    pub disk_bandwidth_bps: u64,
    /// Fixed per-operation latency of a disk write (seek/flush overhead).
    pub disk_op_latency: Dur,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed,
            link_bandwidth_bps: 1_000_000_000,
            one_way_latency: Dur::micros(50),
            mtu_bytes: 1500,
            frame_overhead_bytes: 66,
            cores_per_node: 4,
            send_syscall_cost: Dur::micros(5),
            send_ns_per_kib: 2_816, // ~2.75 ns/byte: 8 KiB send ~= 27.5 us
            recv_frame_cost: Dur::nanos(1_200),
            recv_ns_per_kib: 973, // ~0.95 ns/byte: 8 KiB recv ~= 15 us
            udp_socket_buffer: 16 * 1024 * 1024,
            tcp_window_bytes: 16 * 1024 * 1024,
            switch_port_buffer: 8 * 1024 * 1024,
            random_loss: 0.0,
            random_reorder: 0.0,
            random_duplication: 0.0,
            disk_bandwidth_bps: 450_000_000,
            disk_op_latency: Dur::micros(390),
        }
    }
}

impl SimConfig {
    /// Payload bytes that fit in one MTU frame.
    pub fn mtu_payload(&self) -> u32 {
        self.mtu_bytes - self.frame_overhead_bytes
    }

    /// Number of MTU frames needed to carry `bytes` of payload.
    pub fn frames_for(&self, bytes: u32) -> u32 {
        let per = self.mtu_payload().max(1);
        bytes.div_ceil(per).max(1)
    }

    /// Bytes actually occupying the wire for `bytes` of payload,
    /// including per-frame header overhead.
    pub fn wire_bytes(&self, bytes: u32) -> u64 {
        bytes as u64 + self.frames_for(bytes) as u64 * self.frame_overhead_bytes as u64
    }

    /// Time to serialize `bytes` of payload onto a link. A zero
    /// `link_bandwidth_bps` means infinite bandwidth: zero transfer
    /// delay, not a division crash.
    pub fn tx_time(&self, bytes: u32) -> Dur {
        if self.link_bandwidth_bps == 0 {
            return Dur::ZERO;
        }
        let bits = self.wire_bytes(bytes) * 8;
        Dur::nanos(bits.saturating_mul(1_000_000_000) / self.link_bandwidth_bps)
    }

    /// CPU cost of sending one datagram of `bytes` payload.
    pub fn send_cost(&self, bytes: u32) -> Dur {
        self.send_syscall_cost + Dur::nanos(bytes as u64 * self.send_ns_per_kib / 1024)
    }

    /// CPU cost of receiving one datagram of `bytes` payload.
    pub fn recv_cost(&self, bytes: u32) -> Dur {
        self.recv_frame_cost * self.frames_for(bytes) as u64
            + Dur::nanos(bytes as u64 * self.recv_ns_per_kib / 1024)
    }

    /// Time for the disk to persist one write of `bytes`. A zero
    /// `disk_bandwidth_bps` means infinite bandwidth: only the
    /// per-operation latency remains.
    pub fn disk_write_time(&self, bytes: u32) -> Dur {
        if self.disk_bandwidth_bps == 0 {
            return self.disk_op_latency;
        }
        let bits = bytes as u64 * 8;
        self.disk_op_latency
            + Dur::nanos(bits.saturating_mul(1_000_000_000) / self.disk_bandwidth_bps)
    }

    /// Queue occupancy, in bytes, implied by a link that is busy for
    /// `backlog` more time at this configuration's bandwidth. With zero
    /// (infinite) bandwidth nothing ever queues.
    ///
    /// Runs on the switch tail-drop path for every contended datagram,
    /// so the nanoseconds → bytes conversion uses [`div_1e9`] instead of
    /// a 64-bit hardware division.
    pub fn backlog_bytes(&self, backlog: Dur) -> u64 {
        div_1e9(backlog.as_nanos().saturating_mul(self.link_bandwidth_bps / 8))
    }
}

/// Exact `x / 1_000_000_000` for every `u64`, as a multiply-shift —
/// no runtime division.
///
/// Correctness: `1e9 = 2^9 · 5^9`, so `x / 1e9 = y / 5^9` with
/// `y = x >> 9 < 2^55`. Taking `M = ceil(2^76 / 5^9)`, the classic
/// round-up-reciprocal condition says `floor(y·M / 2^76) = floor(y / 5^9)`
/// for all `y < 2^55` provided `M·5^9 - 2^76 ≤ 2^(76-55)`; here
/// `M·5^9 - 2^76 < 5^9 = 1_953_125 < 2^21`, so the identity is exact over
/// the full domain (the unit tests sweep the rounding boundaries and the
/// `u64` edges).
#[inline]
fn div_1e9(x: u64) -> u64 {
    const M: u128 = (1u128 << 76) / 1_953_125 + 1; // ceil(2^76 / 5^9)
    (((x >> 9) as u128 * M) >> 76) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_of_8k_packet_is_about_67_us() {
        let cfg = SimConfig::default();
        // 8192 payload bytes -> 6 frames -> 8192 + 6*66 = 8588 wire bytes
        // at 1 Gbps -> 68.7 us.
        let t = cfg.tx_time(8192);
        assert!(t >= Dur::micros(65) && t <= Dur::micros(72), "{t:?}");
    }

    #[test]
    fn frames_round_up() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.frames_for(1), 1);
        assert_eq!(cfg.frames_for(cfg.mtu_payload()), 1);
        assert_eq!(cfg.frames_for(cfg.mtu_payload() + 1), 2);
    }

    #[test]
    fn sync_disk_write_sustains_about_270_mbps() {
        let cfg = SimConfig::default();
        let unit = 32 * 1024;
        let t = cfg.disk_write_time(unit);
        let mbps = unit as f64 * 8.0 / t.as_secs_f64() / 1e6;
        assert!((250.0..300.0).contains(&mbps), "measured {mbps} Mbps");
    }

    #[test]
    fn send_cost_scales_with_bytes() {
        let cfg = SimConfig::default();
        assert!(cfg.send_cost(8192) > cfg.send_cost(256));
        // 8 KiB send: 5us syscall + ~22.5us copy ~= 27.5us.
        let c = cfg.send_cost(8192);
        assert!(c >= Dur::micros(26) && c <= Dur::micros(29), "{c:?}");
        // 8 KiB receive: 6 frames * 1.2us + ~7.8us ~= 15us.
        let r = cfg.recv_cost(8192);
        assert!(r >= Dur::micros(13) && r <= Dur::micros(17), "{r:?}");
    }

    #[test]
    fn zero_bandwidth_means_zero_delay_not_a_panic() {
        // The "infinite bandwidth" config: both bandwidths zero.
        let mut cfg = SimConfig::default();
        cfg.link_bandwidth_bps = 0;
        cfg.disk_bandwidth_bps = 0;
        assert_eq!(cfg.tx_time(8192), Dur::ZERO);
        assert_eq!(cfg.tx_time(u32::MAX / 2), Dur::ZERO);
        assert_eq!(cfg.disk_write_time(32 * 1024), cfg.disk_op_latency);
        assert_eq!(cfg.backlog_bytes(Dur::secs(5)), 0, "an infinite link never queues");
    }

    #[test]
    fn zero_bandwidth_simulation_still_delivers() {
        use crate::sim::{Actor, Ctx, Envelope, Idle, Sim};
        use std::sync::Arc;
        use std::sync::Mutex;

        struct Recorder(Arc<Mutex<u32>>);
        impl Actor for Recorder {
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {
                *self.0.lock().unwrap() += 1;
            }
        }

        let mut cfg = SimConfig::default();
        cfg.link_bandwidth_bps = 0;
        cfg.disk_bandwidth_bps = 0;
        let got = Arc::new(Mutex::new(0));
        let mut sim = Sim::new(cfg);
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder(got.clone())));
        sim.with_ctx(a, |ctx| {
            for i in 0..10u32 {
                ctx.udp_send(b, i, 8192);
            }
        });
        sim.run_to_idle();
        assert_eq!(*got.lock().unwrap(), 10);
    }

    #[test]
    fn backlog_magic_divide_matches_hardware_divide() {
        // The multiply-shift must agree with `/ 1_000_000_000` exactly
        // across a bandwidth × backlog config sweep, including the
        // saturating product and the u64 edges.
        let mut cfg = SimConfig::default();
        let bandwidths = [0u64, 8, 1_000, 100_000_000, 1_000_000_000, 10_000_000_000, u64::MAX];
        let backlogs =
            [0u64, 1, 999_999_999, 1_000_000_000, 123_456_789_012, u64::MAX / 3, u64::MAX];
        for &bw in &bandwidths {
            cfg.link_bandwidth_bps = bw;
            for &b in &backlogs {
                let product = b.saturating_mul(bw / 8);
                assert_eq!(
                    cfg.backlog_bytes(Dur::nanos(b)),
                    product / 1_000_000_000,
                    "bw={bw} backlog={b}"
                );
            }
        }
        // Dense sweeps around the low and high rounding boundaries.
        for x in (0u64..5_000_000_000).step_by(999_983) {
            assert_eq!(super::div_1e9(x), x / 1_000_000_000, "x={x}");
        }
        for x in (u64::MAX - 10_000_000_000..u64::MAX).step_by(999_983) {
            assert_eq!(super::div_1e9(x), x / 1_000_000_000, "x={x}");
        }
    }

    #[test]
    fn backlog_bytes_inverts_tx_time() {
        let cfg = SimConfig::default();
        let t = cfg.tx_time(8192);
        let b = cfg.backlog_bytes(t);
        let wire = cfg.wire_bytes(8192);
        assert!((b as i64 - wire as i64).unsigned_abs() < 20, "{b} vs {wire}");
    }
}
