//! Memory-dump carving (§5): query strings and tokens in the DB process
//! heap, long after the statements that carried them finished.

/// A string carved from a memory dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CarvedString {
    /// Byte offset in the dump.
    pub offset: usize,
    /// The carved text.
    pub text: String,
}

/// Carves printable-ASCII runs of at least `min_len` bytes (the classic
/// `strings(1)` pass over a core dump).
pub fn carve_strings(dump: &[u8], min_len: usize) -> Vec<CarvedString> {
    let mut out = Vec::new();
    let mut offset = 0;
    for run in dump.split(|b| !(0x20..0x7F).contains(b)) {
        if !run.is_empty() && run.len() >= min_len {
            out.push(CarvedString {
                offset,
                text: String::from_utf8_lossy(run).into_owned(),
            });
        }
        offset += run.len() + 1;
    }
    out
}

/// Filters carved strings down to SQL-looking statements.
pub fn carve_sql(dump: &[u8]) -> Vec<CarvedString> {
    carve_strings(dump, 12)
        .into_iter()
        .filter(|s| {
            let upper = s.text.to_ascii_uppercase();
            ["SELECT ", "INSERT ", "UPDATE ", "DELETE "]
                .iter()
                .any(|kw| upper.contains(kw))
        })
        .collect()
}

/// Counts non-overlapping occurrences of `needle` in the dump — the §5
/// experiment's measurement.
pub fn count_occurrences(dump: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() || needle.len() > dump.len() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i + needle.len() <= dump.len() {
        if dump.get(i..i + needle.len()) == Some(needle) {
            count += 1;
            i += needle.len();
        } else {
            i += 1;
        }
    }
    count
}

/// Extracts the hex literals of every carved SQL string — where the
/// attacker finds SWP trapdoors and ORE tokens in a memory image.
pub fn carve_tokens(dump: &[u8]) -> Vec<Vec<u8>> {
    carve_sql(dump)
        .iter()
        .flat_map(|s| crate::forensics::binlog::extract_hex_literals(&s.text))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carves_printable_runs() {
        let mut dump = vec![0u8; 16];
        dump.extend_from_slice(b"SELECT * FROM t WHERE a = 1");
        dump.push(0);
        dump.extend_from_slice(b"short");
        dump.push(0);
        dump.extend_from_slice(b"another long printable run here");
        let strings = carve_strings(&dump, 10);
        assert_eq!(strings.len(), 2);
        assert_eq!(strings[0].offset, 16);
        assert!(strings[0].text.starts_with("SELECT"));
    }

    #[test]
    fn sql_filter() {
        let mut dump = Vec::new();
        dump.extend_from_slice(b"not a query, just text padding");
        dump.push(0);
        dump.extend_from_slice(b"select * from secrets where k = 'x'");
        dump.push(0);
        dump.extend_from_slice(b"UPDATE t SET a = 1");
        let sql = carve_sql(&dump);
        assert_eq!(sql.len(), 2);
    }

    #[test]
    fn token_extraction_from_dump() {
        let mut dump = vec![0u8; 8];
        dump.extend_from_slice(b"SELECT * FROM d WHERE SWP_MATCH(c, X'a1b2c3')");
        let tokens = carve_tokens(&dump);
        assert_eq!(tokens, vec![vec![0xA1, 0xB2, 0xC3]]);
    }

    #[test]
    fn occurrence_counting() {
        assert_eq!(count_occurrences(b"abXabXab", b"ab"), 3);
        assert_eq!(count_occurrences(b"aaaa", b"aa"), 2, "non-overlapping");
        assert_eq!(count_occurrences(b"", b"a"), 0);
        assert_eq!(count_occurrences(b"a", b""), 0);
    }

    #[test]
    fn end_of_dump_run_is_carved() {
        let strings = carve_strings(b"ends with printable text!", 5);
        assert_eq!(strings.len(), 1);
    }
}
