//! The JSONL trial journal: an append-only file of the rows
//! `volcanoml_obs::journal` defines (re-exported here), one line per trial or
//! space expansion.
//!
//! Durability: the journal is `Sync` (workers append concurrently through
//! an internal mutex) and the file mirror flushes periodically — every 16
//! rows or every second, plus on [`Journal::flush`] and on drop — so a `kill -9` loses at most the last flush window, never
//! the whole buffer. [`Journal::resume_from_path`] reopens an existing
//! journal after a crash: it replays every complete row, truncates a torn
//! final line (the hard-kill signature), continues trial ids past the
//! largest replayed id, and keeps `elapsed_s` monotone across the restart.
//! Rows with an unknown `schema` version (or none at all) are rejected
//! with a clear error rather than silently misread.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
pub use volcanoml_obs::journal::{
    ExpansionRecord, JournalRow, TrialRecord, JOURNAL_SCHEMA_VERSION,
};

/// Rows buffered before an automatic flush.
const DEFAULT_FLUSH_ROWS: usize = 16;

/// Time since the last flush before the next row forces one.
const DEFAULT_FLUSH_INTERVAL: Duration = Duration::from_secs(1);

/// Thread-safe JSONL journal of executed trials.
pub struct Journal {
    epoch: Instant,
    /// Seconds already elapsed when the journal was (re)opened — nonzero
    /// only after [`Journal::resume_from_path`], so `elapsed_s` stays
    /// monotone across a crash-restart.
    epoch_offset: f64,
    next_id: AtomicU64,
    /// Whether resume dropped a torn (incompletely written) final line.
    torn_tail: bool,
    /// Number of rows replayed from disk at resume time.
    resumed: usize,
    state: Mutex<JournalState>,
}

struct JournalState {
    lines: Vec<TrialRecord>,
    /// Space-expansion rows, in append order; each row's `trial` field
    /// orders it relative to `lines`.
    expansions: Vec<ExpansionRecord>,
    file: Option<std::io::BufWriter<std::fs::File>>,
    /// Rows written since the last flush.
    unflushed: usize,
    last_flush: Instant,
    /// Flush durations (seconds) not yet drained by
    /// [`Journal::take_flush_observations`]. Bounded so a run with no
    /// observability layer attached never grows it past a page.
    flush_obs: Vec<f64>,
}

/// Cap on pending flush-latency observations (see `JournalState::flush_obs`).
const MAX_PENDING_FLUSH_OBS: usize = 1024;

impl JournalState {
    fn fresh(file: Option<std::io::BufWriter<std::fs::File>>) -> JournalState {
        JournalState {
            lines: Vec::new(),
            expansions: Vec::new(),
            file,
            unflushed: 0,
            last_flush: Instant::now(),
            flush_obs: Vec::new(),
        }
    }

    fn note_flush(&mut self, seconds: f64) {
        if self.flush_obs.len() < MAX_PENDING_FLUSH_OBS {
            self.flush_obs.push(seconds);
        }
    }
}

impl Journal {
    /// An in-memory journal (tests, programmatic consumption).
    pub fn in_memory() -> Journal {
        Journal {
            epoch: Instant::now(),
            epoch_offset: 0.0,
            next_id: AtomicU64::new(0),
            torn_tail: false,
            resumed: 0,
            state: Mutex::new(JournalState::fresh(None)),
        }
    }

    /// A journal mirrored to a JSONL file at `path` (truncates).
    pub fn to_path(path: &std::path::Path) -> std::io::Result<Journal> {
        let file = std::fs::File::create(path)?;
        Ok(Journal {
            epoch: Instant::now(),
            epoch_offset: 0.0,
            next_id: AtomicU64::new(0),
            torn_tail: false,
            resumed: 0,
            state: Mutex::new(JournalState::fresh(Some(std::io::BufWriter::new(file)))),
        })
    }

    /// Reopens an existing journal after a crash and prepares it for
    /// appending:
    ///
    /// - every complete row is replayed into memory ([`Journal::records`]);
    /// - a torn final line (no trailing newline, unparseable — the
    ///   `kill -9` signature) is dropped and the file truncated to the
    ///   valid prefix;
    /// - a complete final line missing only its newline is kept and
    ///   rewritten terminated;
    /// - an unparseable line *inside* the file, or any row with a missing
    ///   or unsupported `schema` version, is an error — that is corruption
    ///   or a version mismatch, not a crash artifact;
    /// - trial ids continue from the largest replayed id + 1 and
    ///   [`Journal::elapsed_s`] continues from the largest replayed
    ///   `end_s`, so resumed rows never collide with or time-travel before
    ///   the originals.
    pub fn resume_from_path(path: &std::path::Path) -> std::io::Result<Journal> {
        use std::io::{Error, ErrorKind};
        let text = std::fs::read_to_string(path)?;
        let n_bytes = text.len();
        let mut records: Vec<TrialRecord> = Vec::new();
        let mut expansions: Vec<ExpansionRecord> = Vec::new();
        // Byte length of the newline-terminated valid prefix.
        let mut valid_prefix: usize = 0;
        // A final line that parsed but lacked its newline (crash landed
        // exactly after the closing brace): re-append it terminated.
        let mut reappend: Option<JournalRow> = None;
        let mut torn_tail = false;
        let mut offset = 0usize;
        let mut line_no = 0usize;
        while offset < n_bytes {
            line_no += 1;
            let rest = &text[offset..];
            let (line, line_len, terminated) = match rest.find('\n') {
                Some(p) => (&rest[..p], p + 1, true),
                None => (rest, rest.len(), false),
            };
            let is_last = offset + line_len >= n_bytes;
            if line.trim().is_empty() {
                if terminated {
                    valid_prefix = offset + line_len;
                }
                offset += line_len;
                continue;
            }
            match JournalRow::from_json(line) {
                Ok(row) => {
                    match &row {
                        JournalRow::Trial(rec) => records.push(rec.clone()),
                        JournalRow::Expansion(rec) => expansions.push(rec.clone()),
                    }
                    if terminated {
                        valid_prefix = offset + line_len;
                    } else {
                        reappend = Some(row);
                    }
                }
                Err(e) => {
                    if is_last && !terminated {
                        // Torn tail from a hard kill: drop it.
                        torn_tail = true;
                    } else {
                        return Err(Error::new(
                            ErrorKind::InvalidData,
                            format!("{}:{line_no}: {e}", path.display()),
                        ));
                    }
                }
            }
            offset += line_len;
        }
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        if valid_prefix < n_bytes {
            // Cut the torn tail (or the unterminated-but-valid line we are
            // about to rewrite) so appends never extend a partial line.
            file.set_len(valid_prefix as u64)?;
        }
        let mut writer = std::io::BufWriter::new(file);
        if let Some(row) = &reappend {
            writeln!(writer, "{}", row.to_json())?;
            writer.flush()?;
        }
        let next_id = records.iter().map(|r| r.trial_id + 1).max().unwrap_or(0);
        let epoch_offset = records.iter().map(|r| r.end_s).fold(0.0, f64::max);
        let resumed = records.len();
        let mut state = JournalState::fresh(Some(writer));
        state.lines = records;
        state.expansions = expansions;
        Ok(Journal {
            epoch: Instant::now(),
            epoch_offset,
            next_id: AtomicU64::new(next_id),
            torn_tail,
            resumed,
            state: Mutex::new(state),
        })
    }

    /// Whether [`Journal::resume_from_path`] dropped a torn final line.
    pub fn skipped_torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Number of rows replayed from disk when this journal was resumed
    /// (0 for fresh journals).
    pub fn resumed_records(&self) -> usize {
        self.resumed
    }

    /// Allocates the next trial id.
    pub fn next_trial_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Seconds elapsed since the journal was first opened (monotone across
    /// a crash-resume: a resumed journal starts at the last recorded
    /// `end_s` rather than 0).
    pub fn elapsed_s(&self) -> f64 {
        self.epoch_offset + self.epoch.elapsed().as_secs_f64()
    }

    /// Appends one record (and mirrors it to the file, if any). Lines are
    /// buffered but flushed automatically every 16 rows or every second, so
    /// a hard kill loses at most the last flush window; [`Journal::flush`]
    /// (and drop) force the remainder out.
    pub fn record(&self, rec: TrialRecord) {
        let mut state = self.state.lock().expect("journal poisoned");
        let state = &mut *state;
        if let Some(file) = state.file.as_mut() {
            let _ = writeln!(file, "{}", rec.to_json());
            state.unflushed += 1;
            if state.unflushed >= DEFAULT_FLUSH_ROWS
                || state.last_flush.elapsed() >= DEFAULT_FLUSH_INTERVAL
            {
                let flush_start = Instant::now();
                let _ = file.flush();
                state.unflushed = 0;
                state.last_flush = Instant::now();
                let elapsed = flush_start.elapsed().as_secs_f64();
                state.note_flush(elapsed);
            }
        }
        state.lines.push(rec);
    }

    /// Appends one space-expansion row (and mirrors it to the file), then
    /// flushes immediately: expansions are rare, and losing one to a crash
    /// would desynchronize the audit trail from the trials that follow it.
    pub fn record_expansion(&self, rec: ExpansionRecord) {
        let mut state = self.state.lock().expect("journal poisoned");
        let state = &mut *state;
        if let Some(file) = state.file.as_mut() {
            let _ = writeln!(file, "{}", rec.to_json());
            let flush_start = Instant::now();
            let _ = file.flush();
            state.unflushed = 0;
            state.last_flush = Instant::now();
            let elapsed = flush_start.elapsed().as_secs_f64();
            state.note_flush(elapsed);
        }
        state.expansions.push(rec);
    }

    /// Snapshot of all space-expansion rows, in append order.
    pub fn expansions(&self) -> Vec<ExpansionRecord> {
        self.state
            .lock()
            .expect("journal poisoned")
            .expansions
            .clone()
    }

    /// Flushes buffered lines to the backing file, if any.
    pub fn flush(&self) {
        let mut state = self.state.lock().expect("journal poisoned");
        let state = &mut *state;
        if let Some(file) = state.file.as_mut() {
            let flush_start = Instant::now();
            let _ = file.flush();
            state.unflushed = 0;
            state.last_flush = Instant::now();
            let elapsed = flush_start.elapsed().as_secs_f64();
            state.note_flush(elapsed);
        }
    }

    /// Drains the flush-latency observations (seconds per flush) recorded
    /// since the last call. The evaluator feeds these into the
    /// `journal.flush_s` histogram so scrapes can watch journal I/O tail
    /// latency without the journal knowing about metrics.
    pub fn take_flush_observations(&self) -> Vec<f64> {
        let mut state = self.state.lock().expect("journal poisoned");
        std::mem::take(&mut state.flush_obs)
    }

    /// Number of journaled trials.
    pub fn len(&self) -> usize {
        self.state.lock().expect("journal poisoned").lines.len()
    }

    /// Whether no trials have been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all records, in append order.
    pub fn records(&self) -> Vec<TrialRecord> {
        self.state.lock().expect("journal poisoned").lines.clone()
    }

    /// Snapshot of all records rendered as JSONL lines.
    pub fn lines(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("journal poisoned")
            .lines
            .iter()
            .map(TrialRecord::to_json)
            .collect()
    }
}

impl Drop for Journal {
    /// Short CLI runs must never lose trailing records: flush the buffer
    /// when the journal goes out of scope at end-of-run.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> TrialRecord {
        TrialRecord {
            trial_id: id,
            worker: 1,
            start_s: 0.25,
            end_s: 0.5,
            fidelity: 1.0,
            rung: 2,
            bracket: 0,
            loss: 0.125,
            cost: 0.25,
            cached: false,
            fe_cached: false,
            panicked: false,
            timed_out: false,
            arm: "algorithm=1".to_string(),
            digest: format!("{:016x}", 0x9f3c_2a11_d04b_77e6u64),
        }
    }

    fn temp_path(stem: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("volcanoml-exec-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{stem}-{}.jsonl", std::process::id()))
    }

    fn expansion(stage: u64, trial: u64) -> ExpansionRecord {
        ExpansionRecord {
            stage,
            name: "transform_stage".to_string(),
            trigger_eui: 0.000425,
            trial,
        }
    }

    #[test]
    fn json_line_has_stable_schema() {
        let line = record(3).to_json();
        for key in [
            "\"schema\":2",
            "\"trial\":3",
            "\"worker\":1",
            "\"start_s\":0.25",
            "\"end_s\":0.5",
            "\"fidelity\":1",
            "\"rung\":2",
            "\"bracket\":0",
            "\"loss\":0.125",
            "\"cost\":0.25",
            "\"cached\":false",
            "\"fe_cached\":false",
            "\"panicked\":false",
            "\"timed_out\":false",
            "\"arm\":\"algorithm=1\"",
            "\"digest\":\"9f3c2a11d04b77e6\"",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(line.starts_with("{\"schema\":2,"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn expansion_row_has_stable_schema_and_round_trips() {
        let r = expansion(1, 23);
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"schema\":2,\"event\":\"expansion\",\"stage\":1,\
             \"name\":\"transform_stage\",\"trigger_eui\":0.000425,\"trial\":23}"
        );
        let back = ExpansionRecord::from_json(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.trigger_eui.to_bits(), r.trigger_eui.to_bits());
        // Bit-exactness for awkward floats, same as trial rows.
        let mut odd = r.clone();
        odd.trigger_eui = 0.1 + 0.2;
        let back = ExpansionRecord::from_json(&odd.to_json()).unwrap();
        assert_eq!(back.trigger_eui.to_bits(), odd.trigger_eui.to_bits());
    }

    #[test]
    fn journal_row_dispatches_on_event_kind() {
        match JournalRow::from_json(&record(5).to_json()).unwrap() {
            JournalRow::Trial(r) => assert_eq!(r.trial_id, 5),
            other => panic!("expected trial row, got {other:?}"),
        }
        match JournalRow::from_json(&expansion(2, 40).to_json()).unwrap() {
            JournalRow::Expansion(r) => assert_eq!(r.stage, 2),
            other => panic!("expected expansion row, got {other:?}"),
        }
        // Cross-kind parses fail loudly rather than misread.
        assert!(TrialRecord::from_json(&expansion(1, 0).to_json()).is_err());
        assert!(ExpansionRecord::from_json(&record(0).to_json()).is_err());
        let alien = expansion(1, 0)
            .to_json()
            .replace("\"expansion\"", "\"teleport\"");
        assert!(JournalRow::from_json(&alien)
            .unwrap_err()
            .contains("teleport"));
    }

    /// Version-1 trial rows (pre-expansion journals) must stay readable.
    #[test]
    fn v1_trial_rows_still_parse() {
        let v1 = record(9).to_json().replace("\"schema\":2", "\"schema\":1");
        let back = TrialRecord::from_json(&v1).unwrap();
        assert_eq!(back, record(9));
    }

    #[test]
    fn infinite_loss_is_quoted() {
        let mut r = record(0);
        r.loss = f64::INFINITY;
        assert!(r.to_json().contains("\"loss\":\"inf\""));
        r.loss = f64::NAN;
        assert!(r.to_json().contains("\"loss\":\"nan\""));
    }

    /// The crash-resume keystone: parse(render(r)) must be bit-identical,
    /// including awkward floats, infinities, and escaped strings.
    #[test]
    fn record_round_trips_bitwise() {
        let mut r = record(7);
        r.start_s = 0.1 + 0.2; // 0.30000000000000004
        r.end_s = 1.0 / 3.0;
        r.fidelity = f64::from_bits(0x3FD5_5555_5555_5554); // one ulp below 1/3
        r.cost = f64::MIN_POSITIVE;
        r.loss = -0.0;
        r.arm = "weird \"arm\"\twith\nescapes\\".to_string();
        let back = TrialRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.start_s.to_bits(), r.start_s.to_bits());
        assert_eq!(back.loss.to_bits(), r.loss.to_bits());
        assert_eq!(back.cost.to_bits(), r.cost.to_bits());

        r.loss = f64::INFINITY;
        let back = TrialRecord::from_json(&r.to_json()).unwrap();
        assert!(back.loss.is_infinite() && back.loss > 0.0);
    }

    #[test]
    fn parser_ignores_unknown_keys_and_rejects_bad_rows() {
        let mut line = record(0).to_json();
        line.insert_str(line.len() - 1, ",\"future_key\":\"x\"");
        assert!(TrialRecord::from_json(&line).is_ok());

        let err = TrialRecord::from_json("{\"trial\":0}").unwrap_err();
        assert!(err.contains("schema"), "unexpected error: {err}");

        let err = TrialRecord::from_json(
            &record(0).to_json().replace("\"schema\":2", "\"schema\":99"),
        )
        .unwrap_err();
        assert!(err.contains("99"), "unexpected error: {err}");

        assert!(TrialRecord::from_json("{\"schema\":2,\"trial\":").is_err());
    }

    /// Journal rows are flat: the shared codec parses nesting, arrays and
    /// `null`, so the journal has to turn them away itself.
    #[test]
    fn parser_rejects_nested_array_and_null_values() {
        for alien in ["{\"a\":1}", "[1,2]", "null"] {
            let mut line = record(0).to_json();
            line.insert_str(line.len() - 1, &format!(",\"future_key\":{alien}"));
            let err = JournalRow::from_json(&line).unwrap_err();
            assert!(err.contains("future_key"), "unexpected error: {err}");
            let line = record(0).to_json().replace("\"loss\":0.125", &format!("\"loss\":{alien}"));
            assert!(TrialRecord::from_json(&line).is_err(), "accepted loss = {alien}");
        }
    }

    #[test]
    fn in_memory_journal_accumulates_in_order() {
        let j = Journal::in_memory();
        assert!(j.is_empty());
        for i in 0..5 {
            let id = j.next_trial_id();
            assert_eq!(id, i);
            j.record(record(id));
        }
        assert_eq!(j.len(), 5);
        let ids: Vec<u64> = j.records().iter().map(|r| r.trial_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(j.lines().len(), 5);
    }

    #[test]
    fn file_journal_writes_jsonl() {
        let path = temp_path("journal");
        {
            let j = Journal::to_path(&path).unwrap();
            j.record(record(0));
            j.record(record(1));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trial\":0"));
        assert!(lines[1].contains("\"trial\":1"));
        std::fs::remove_file(&path).ok();
    }

    /// Regression: a run that ends right after the last trial (journal
    /// dropped without an explicit flush call) must not lose trailing
    /// buffered records.
    #[test]
    fn drop_flushes_trailing_records() {
        let path = temp_path("drop");
        {
            let j = Journal::to_path(&path).unwrap();
            for i in 0..20 {
                j.record(record(i));
            }
            // No flush: the BufWriter still holds the rows past the last
            // automatic flush. Drop must write them out.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 20);
        assert!(text.lines().last().unwrap().contains("\"trial\":19"));
        std::fs::remove_file(&path).ok();
    }

    /// An explicit mid-run flush makes records visible to concurrent
    /// readers while the journal is still alive.
    #[test]
    fn explicit_flush_is_readable_while_alive() {
        let path = temp_path("flush");
        let j = Journal::to_path(&path).unwrap();
        j.record(record(0));
        j.record(record(1));
        j.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        drop(j);
        std::fs::remove_file(&path).ok();
    }

    /// Durability against SIGKILL: the row-count flush policy pushes rows
    /// to the OS without any explicit flush call.
    #[test]
    fn periodic_flush_by_row_count() {
        let path = temp_path("periodic");
        let j = Journal::to_path(&path).unwrap();
        for i in 0..DEFAULT_FLUSH_ROWS as u64 {
            j.record(record(i));
        }
        // The threshold is hit: every row visible with no flush() call.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), DEFAULT_FLUSH_ROWS);
        drop(j);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_replays_rows_and_continues_ids_and_clock() {
        let path = temp_path("resume");
        {
            let j = Journal::to_path(&path).unwrap();
            for _ in 0..3 {
                let id = j.next_trial_id();
                let mut r = record(id);
                r.end_s = 10.0 + id as f64;
                j.record(r);
            }
        }
        let j = Journal::resume_from_path(&path).unwrap();
        assert_eq!(j.resumed_records(), 3);
        assert!(!j.skipped_torn_tail());
        assert_eq!(j.len(), 3);
        assert_eq!(j.next_trial_id(), 3, "ids continue past the replayed max");
        assert!(j.elapsed_s() >= 12.0, "clock continues past max end_s");
        j.record(record(3));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().last().unwrap().contains("\"trial\":3"));
        std::fs::remove_file(&path).ok();
    }

    /// Satellite regression: a `kill -9` mid-write leaves a torn final
    /// line. Resume must drop it, truncate the file, and append cleanly.
    #[test]
    fn resume_skips_torn_final_line() {
        let path = temp_path("torn");
        {
            let j = Journal::to_path(&path).unwrap();
            j.record(record(0));
            j.record(record(1));
        }
        // Simulate the kill: append half a row with no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"schema\":1,\"trial\":2,\"worker\":0,\"sta");
        std::fs::write(&path, &text).unwrap();

        let j = Journal::resume_from_path(&path).unwrap();
        assert!(j.skipped_torn_tail());
        assert_eq!(j.resumed_records(), 2);
        assert_eq!(j.next_trial_id(), 2);
        j.record(record(2));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "torn tail truncated, new row appended");
        for (i, line) in lines.iter().enumerate() {
            let rec = TrialRecord::from_json(line).expect("every surviving line parses");
            assert_eq!(rec.trial_id, i as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A final line cut exactly after the closing brace (complete row, no
    /// newline) is kept, not dropped.
    #[test]
    fn resume_keeps_complete_unterminated_final_line() {
        let path = temp_path("unterminated");
        {
            let j = Journal::to_path(&path).unwrap();
            j.record(record(0));
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&record(1).to_json()); // no trailing newline
        std::fs::write(&path, &text).unwrap();

        let j = Journal::resume_from_path(&path).unwrap();
        assert_eq!(j.resumed_records(), 2);
        assert!(!j.skipped_torn_tail());
        j.record(record(2));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            TrialRecord::from_json(line).expect("no concatenated rows");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Expansion rows interleaved with trial rows survive a resume: trials
    /// replay into `records()`, expansions into `expansions()`, and the
    /// `trial` field keeps their relative order recoverable.
    #[test]
    fn resume_replays_interleaved_expansion_rows() {
        let path = temp_path("expansion-resume");
        {
            let j = Journal::to_path(&path).unwrap();
            j.record(record(0));
            j.record(record(1));
            j.record_expansion(expansion(1, 2));
            j.record(record(2));
            j.record_expansion(expansion(2, 3));
        }
        let j = Journal::resume_from_path(&path).unwrap();
        assert_eq!(j.resumed_records(), 3);
        assert_eq!(j.next_trial_id(), 3);
        let exps = j.expansions();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0], expansion(1, 2));
        assert_eq!(exps[1], expansion(2, 3));
        drop(j);
        std::fs::remove_file(&path).ok();
    }

    /// A crash mid-expansion-write tears the expansion row: resume drops
    /// the torn tail and the journal reports one fewer expansion — the
    /// study-level replay then re-derives and re-journals it.
    #[test]
    fn resume_truncates_torn_expansion_row() {
        let path = temp_path("expansion-torn");
        {
            let j = Journal::to_path(&path).unwrap();
            j.record(record(0));
            j.record_expansion(expansion(1, 1));
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"schema\":2,\"event\":\"expansion\",\"sta");
        std::fs::write(&path, &text).unwrap();

        let j = Journal::resume_from_path(&path).unwrap();
        assert!(j.skipped_torn_tail());
        assert_eq!(j.expansions().len(), 1);
        j.record_expansion(expansion(2, 1));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            JournalRow::from_json(line).expect("every surviving line parses");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Corruption *inside* the file is not a crash artifact: hard error.
    #[test]
    fn resume_errors_on_midfile_corruption() {
        let path = temp_path("midfile");
        let good = record(0).to_json();
        std::fs::write(&path, format!("{good}\nnot json at all\n{good}\n")).unwrap();
        let err = Journal::resume_from_path(&path).err().expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "names the line: {err}");
        std::fs::remove_file(&path).ok();
    }

    /// Satellite regression: rows from an unknown schema version must be
    /// rejected with a clear error, not misread.
    #[test]
    fn resume_rejects_unknown_schema_version() {
        let path = temp_path("schema");
        let alien = record(0).to_json().replace("\"schema\":2", "\"schema\":42");
        std::fs::write(&path, format!("{alien}\n")).unwrap();
        let err = Journal::resume_from_path(&path).err().expect("must fail");
        assert!(
            err.to_string().contains("unsupported journal schema version 42"),
            "unexpected error: {err}"
        );

        let legacy = record(0).to_json().replace("\"schema\":2,", "");
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        let err = Journal::resume_from_path(&path).err().expect("must fail");
        assert!(err.to_string().contains("schema"), "unexpected error: {err}");
        std::fs::remove_file(&path).ok();
    }

    /// A crash can cut the file at any byte. Whatever the cut, resume either
    /// refuses (a cut inside a multi-byte character is not UTF-8) or comes
    /// back with a prefix of what was written — never a panic, never a row
    /// that was not journaled — and leaves a file that resumes to itself.
    #[test]
    fn resume_of_every_byte_prefix_is_a_prefix_of_the_rows_or_an_error() {
        let path = temp_path("prefixes");
        let mut accented = record(2);
        accented.arm = "fe:résumé=1".to_string();
        let (trials, expansions) = {
            let j = Journal::to_path(&path).unwrap();
            j.record(record(0));
            j.record(record(1));
            j.record_expansion(expansion(1, 2));
            j.record(accented);
            (j.records(), j.expansions())
        };
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 4);
        let mut refused = 0;
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let Ok(j) = Journal::resume_from_path(&path) else {
                refused += 1;
                continue;
            };
            let (got_trials, got_expansions) = (j.records(), j.expansions());
            assert_eq!(got_trials, trials[..got_trials.len()], "cut at byte {cut}");
            assert_eq!(got_expansions, expansions[..got_expansions.len()], "cut at byte {cut}");
            // Every newline-terminated row before the cut survives.
            let complete = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
            assert!(got_trials.len() + got_expansions.len() >= complete, "cut at byte {cut}");
            drop(j);
            let repaired = std::fs::read(&path).unwrap();
            let again = Journal::resume_from_path(&path).unwrap();
            assert!(!again.skipped_torn_tail(), "cut at byte {cut}: repair left a torn tail");
            assert_eq!(again.records(), got_trials, "cut at byte {cut}");
            assert_eq!(again.expansions(), got_expansions, "cut at byte {cut}");
            drop(again);
            assert_eq!(std::fs::read(&path).unwrap(), repaired, "cut at byte {cut}: not a fixed point");
        }
        // Only the cuts inside the two `é`s (one byte each) are refused.
        assert_eq!(refused, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let j = std::sync::Arc::new(Journal::in_memory());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let j = std::sync::Arc::clone(&j);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let id = j.next_trial_id();
                        j.record(record(id));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.len(), 200);
        let mut ids: Vec<u64> = j.records().iter().map(|r| r.trial_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
