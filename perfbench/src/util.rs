//! Small helpers: order statistics, a seeded generator, hashing, process
//! memory and JSON rendering.

/// Linear-interpolated percentile `p` (0..=1) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The splitmix64 finaliser: a cheap bijective 64-bit mix.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A splitmix64 stream: the benchmark's only source of randomness, so one
/// `--seed` always yields the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Hash of one plex, independent of the order its vertices are listed in.
/// Summing it over a result set (wrapping) gives a hash independent of the
/// order the plexes arrive in.
pub fn plex_hash(plex: &mut [u32]) -> u64 {
    if !plex.windows(2).all(|w| w[0] < w[1]) {
        plex.sort_unstable();
    }
    let h = plex
        .iter()
        .fold(0x51_7CC1_B727_220A_u64, |h, &v| mix64(h ^ u64::from(v)));
    mix64(h ^ plex.len() as u64)
}

/// Reads one `kB` field (e.g. `VmHWM`) of `/proc/self/status`.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process since start or the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Resident set size now, in MiB.
pub fn rss_mib() -> Option<f64> {
    status_kib("VmRSS:").map(|kib| kib as f64 / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux ≥ 4.0), so a
/// later [`peak_rss_mib`] sees only what happened after this call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Renders `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number as JSON (`null` for NaN/∞, which JSON lacks).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn plex_hash_ignores_vertex_order() {
        assert_eq!(plex_hash(&mut [3, 1, 2]), plex_hash(&mut [1, 2, 3]));
        assert_ne!(plex_hash(&mut [1, 2, 3]), plex_hash(&mut [1, 2, 4]));
    }

    #[test]
    fn shuffle_is_seeded() {
        let (mut a, mut b) = ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]);
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
    }
}
