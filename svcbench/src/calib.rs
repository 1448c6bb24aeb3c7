//! Same-run host calibration and process memory readings.

use std::time::Instant;

/// Median wall time in milliseconds of a fixed CPU-and-memory loop: a
/// dependent pseudo-random walk over a 32 MiB table. It does the same
/// work on every commit, so it moves only when the host does.
pub fn calib_ms() -> f64 {
    const LEN: usize = 1 << 22;
    let table: Vec<u64> = (0..LEN as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = 1u64;
            let mut acc = 0u64;
            for _ in 0..(1 << 18) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc = acc.wrapping_add(table[((x >> 20) ^ acc) as usize & (LEN - 1)]);
            }
            std::hint::black_box(acc);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Resident set size of process `pid` in MiB, as the kernel reports it:
/// heap the allocator keeps after a free still counts.
pub fn rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
