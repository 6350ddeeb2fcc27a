//! The closed-loop cycle every workload runs through its own entry
//! point, and the seeded choices it makes.

use crate::report::{Samples, Tally};
use seg_grid::rng::Xoshiro256pp;
use std::path::Path;
use std::time::Instant;

/// How many requests of each shape one cycle sends.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Cache-answered resubmits of finished jobs.
    pub resubmits: usize,
    /// Full re-streams of finished jobs.
    pub restreams: usize,
}

/// What a client keeps of a job's output: its length and a hash, so
/// that holding every finished job costs the load generator no memory
/// to speak of (the peak RSS is the program's, not the benchmark's).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    /// The digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        use std::hash::Hasher;
        let mut h = std::hash::DefaultHasher::new();
        h.write(bytes);
        Digest {
            len: bytes.len(),
            hash: h.finish(),
        }
    }

    /// The digest of `lines`, each ended by a newline.
    pub fn of_lines(lines: &[String]) -> Digest {
        let mut joined = Vec::new();
        for l in lines {
            joined.extend_from_slice(l.as_bytes());
            joined.push(b'\n');
        }
        Digest::of(&joined)
    }

    /// Byte length of the digested output.
    pub fn len(&self) -> usize {
        self.len
    }
}

/// The master seed of fresh job `index` of a run seeded with `seed`.
/// Kept below 2^53 so it survives a JSON number (an `f64`) unchanged.
pub fn job_seed(seed: u64, index: u64) -> u64 {
    Xoshiro256pp::seed_from_u64(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64() >> 11
}

/// A uniform index below `n` (`n > 0`).
fn pick(rng: &mut Xoshiro256pp, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

/// What a fresh job measured.
#[derive(Clone, Copy, Debug)]
pub struct Fresh {
    /// Seconds from submit to the job's last row.
    pub ttlr: f64,
    /// Replicas the job ran.
    pub replicas: usize,
    /// Seconds until the job could run its first replica, when the
    /// workload observes it per job.
    pub setup: Option<f64>,
}

/// One client of a workload: its three request shapes.
pub trait Client {
    /// What the client keeps about a finished job.
    type Job;
    /// Submits fresh job `index` and follows it to its last row.
    fn fresh(&mut self, index: u64, tally: &mut Tally) -> Option<(Self::Job, Fresh)>;
    /// Resubmits a finished job; the seconds until the cached answer.
    fn resubmit(&mut self, job: &Self::Job, tally: &mut Tally) -> Option<f64>;
    /// Re-streams a finished job's rows; `(rows, seconds)`.
    fn restream(&mut self, job: &Self::Job, tally: &mut Tally) -> Option<(usize, f64)>;
    /// A start-up probe run after each cycle, outside its timing, for a
    /// workload whose fresh jobs do not show their own set-up; seconds.
    fn setup(&mut self, _tally: &mut Tally) -> Option<f64> {
        None
    }
}

/// Runs cycles until `deadline`: one fresh job, then the [`Mix`]'s
/// resubmits and re-streams of finished jobs picked by `rng`, then the
/// client's set-up probe, if it has one. `slot` is
/// `(this client, clients)`: client `c` of `k` submits fresh jobs
/// `c, c + k, c + 2k, …`, so clients sharing a seed never submit the
/// same job, and each cycle's jobs/s sample is `k` over its wall time.
pub fn closed_loop<C: Client>(
    client: &mut C,
    mix: Mix,
    (first, clients): (u64, u64),
    rng: &mut Xoshiro256pp,
    deadline: Instant,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Vec<C::Job> {
    let mut jobs = Vec::new();
    let mut index = first;
    while Instant::now() < deadline {
        let cycle = Instant::now();
        if let Some((job, fresh)) = client.fresh(index, tally) {
            samples.ttlr_s.push(fresh.ttlr);
            samples
                .replicas_per_s
                .push(fresh.replicas as f64 / fresh.ttlr);
            samples.setup_s.extend(fresh.setup);
            jobs.push(job);
        }
        index += clients;
        if jobs.is_empty() {
            continue;
        }
        for _ in 0..mix.resubmits {
            let job = &jobs[pick(rng, jobs.len())];
            samples.cache_hit_s.extend(client.resubmit(job, tally));
        }
        for _ in 0..mix.restreams {
            let job = &jobs[pick(rng, jobs.len())];
            if let Some((rows, secs)) = client.restream(job, tally) {
                samples.restream_rows_per_s.push(rows as f64 / secs);
            }
        }
        samples
            .jobs_per_s
            .push(clients as f64 / cycle.elapsed().as_secs_f64());
        samples.setup_s.extend(client.setup(tally));
    }
    jobs
}

/// How many complete rows (newline-ended lines) `bytes` holds.
pub fn rows_in(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Re-reads a finished job's rows file: `(rows, seconds)`, checking the
/// bytes against what the job first wrote.
pub fn reread(path: &Path, expected: Digest, tally: &mut Tally) -> Option<(usize, f64)> {
    let started = Instant::now();
    let read = std::fs::read(path);
    let secs = started.elapsed().as_secs_f64();
    match read {
        Ok(bytes) => {
            tally.check(Digest::of(&bytes) == expected, || {
                format!("{}: re-read rows differ from the first", path.display())
            });
            Some((rows_in(&bytes), secs))
        }
        Err(e) => {
            tally.fail(format!("re-read {}: {e}", path.display()));
            None
        }
    }
}

/// Checks that `rows` (JSONL) holds exactly one row per task of `spec`,
/// in task order, by the `point` and `replica` each row starts with.
pub fn check_rows(what: &str, spec: &seg_engine::SweepSpec, rows: &[u8], tally: &mut Tally) {
    let text = String::from_utf8_lossy(rows);
    let lines: Vec<&str> = text.lines().collect();
    let tasks = spec.tasks();
    let key = |line: &str| -> Option<(usize, u32)> {
        let rest = line.strip_prefix("{\"point\":")?;
        let (point, rest) = rest.split_once(',')?;
        let rest = rest.strip_prefix("\"replica\":")?;
        let (replica, _) = rest.split_once(',')?;
        Some((point.parse().ok()?, replica.parse().ok()?))
    };
    let misplaced = lines
        .iter()
        .zip(&tasks)
        .position(|(line, t)| key(line) != Some((t.point_index, t.replica)));
    tally.check(lines.len() == tasks.len() && misplaced.is_none(), || {
        format!(
            "{what}: {} rows for {} tasks{}",
            lines.len(),
            tasks.len(),
            misplaced.map_or(String::new(), |i| format!(", row {i} out of task order"))
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_depend_only_on_seed_and_index() {
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
        assert_ne!(job_seed(7, 3), job_seed(7, 4));
        assert_ne!(job_seed(7, 3), job_seed(8, 3));
        assert!((0..1000).all(|i| job_seed(u64::MAX, i) < 1 << 53));
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(1);
        assert!((0..100).all(|_| pick(&mut a, 5) == pick(&mut b, 5)));
    }

    #[test]
    fn digests_tell_outputs_apart() {
        assert_eq!(
            Digest::of(b"a\nb\n"),
            Digest::of_lines(&["a".into(), "b".into()])
        );
        assert_ne!(Digest::of(b"a\nb\n"), Digest::of(b"a\nc\n"));
        assert_eq!(Digest::of(b"abc").len(), 3);
    }

    #[test]
    fn rows_must_match_tasks_in_order() {
        let spec = seg_engine::SweepSpec::builder()
            .side(8)
            .horizon(1)
            .taus([0.4, 0.45])
            .replicas(2)
            .build();
        let row = |p: usize, r: u32| format!("{{\"point\":{p},\"replica\":{r},\"seed\":1}}\n");
        let good: String = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .iter()
            .map(|&(p, r)| row(p, r))
            .collect();
        let swapped: String = [(0, 0), (1, 0), (0, 1), (1, 1)]
            .iter()
            .map(|&(p, r)| row(p, r))
            .collect();
        let mut tally = Tally::default();
        check_rows("good", &spec, good.as_bytes(), &mut tally);
        assert_eq!(tally.failed, 0);
        check_rows("swapped", &spec, swapped.as_bytes(), &mut tally);
        check_rows("short", &spec, row(0, 0).as_bytes(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }
}
