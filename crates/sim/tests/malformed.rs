//! Malformed persisted input is refused, never a panic and never a quietly
//! different value. Valid documents come from one real campaign run; each
//! property truncates or garbles one of them and feeds it back to its
//! reader:
//!
//! * `Json::parse` — a strict prefix of an object document, or a raw
//!   control byte inserted anywhere, is an `Err`;
//! * the campaign TOML-subset reader — a line cut inside a string, array
//!   or section header, a line without `=`, or a repeated key is an
//!   `Err`; a misspelt key is refused by `CampaignSpec::parse`;
//! * the results-store reader — a cut or garbled record line is an `Err`;
//! * journal replay — a cut or garbled line anywhere but the last is an
//!   `Err`; a cut last line is the torn tail of a killed write, replayed as
//!   the records before it.

use cdf_core::Provenance;
use cdf_sim::campaign::checkpoint::journal_path;
use cdf_sim::campaign::toml::toml_to_json;
use cdf_sim::json::Json;
use cdf_sim::{
    campaign_status, finalize_campaign, init_campaign, run_shard, Campaign, CampaignSpec,
    ResultStore, ShardOptions,
};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

const SPEC_TOML: &str = r#"
# a small measured campaign
name = "malformed"
hypothesis = "persisted state survives only intact"
mode = "sweep"
workloads = ["astar_like"]
mechanisms = ["base", "cdf"]
seeds = [7, 8]

[grid]
rob = [256, 352]

[eval]
warmup = 500
measure = 1000
scale = 0.02
"#;

/// One finished campaign's persisted state.
struct Fixture {
    campaign: Campaign,
    journal: String,
    store: String,
    report: String,
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cdf-malformed-{tag}-{}", std::process::id()))
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = tmp("campaign");
        let _ = fs::remove_dir_all(&dir);
        let spec = CampaignSpec::parse(SPEC_TOML).expect("spec parses");
        let prov = Provenance {
            git_commit: Some("0123456789abcdef0123456789abcdef01234567".to_string()),
            git_dirty: Some(false),
            rustc_version: Some("rustc 1.0.0-test".to_string()),
            host: "x86_64-test".to_string(),
            timestamp: Some(0),
        };
        let campaign = init_campaign(&dir, spec, 1, prov).expect("init");
        let opts = ShardOptions {
            threads: 1,
            batch: 1,
            ..Default::default()
        };
        run_shard(&campaign, 0, &opts).expect("shard runs");
        let store = dir.join("store.jsonl");
        finalize_campaign(&campaign, Some(&store)).expect("finalizes");
        Fixture {
            journal: fs::read_to_string(journal_path(&dir, 0)).expect("journal"),
            store: fs::read_to_string(&store).expect("store"),
            report: fs::read_to_string(campaign.report_path()).expect("report"),
            campaign,
        }
    })
}

/// The JSON documents under test: the report, a store line, a journal line.
fn json_docs() -> Vec<&'static str> {
    let f = fixture();
    vec![
        f.report.trim_end(),
        f.store.lines().next().expect("a store record"),
        f.journal.lines().nth(1).expect("a journal record"),
    ]
}

/// `text` with a raw control byte inserted at the char boundary at or
/// before `at`.
fn with_control_byte(text: &str, at: usize) -> String {
    let mut at = at % (text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    format!("{}\u{1}{}", &text[..at], &text[at..])
}

/// `line` cut to a non-empty strict prefix ending on a char boundary.
fn cut(line: &str, at: usize) -> &str {
    let mut at = 1 + at % (line.len() - 1);
    while !line.is_char_boundary(at) {
        at -= 1;
    }
    &line[..at]
}

/// `text` with line `index` replaced by `f(line)`.
fn replace_line(text: &str, index: usize, f: impl Fn(&str) -> String) -> String {
    text.lines()
        .enumerate()
        .map(|(i, l)| if i == index { f(l) } else { l.to_string() } + "\n")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_parse_refuses_truncated_and_garbled_documents(which in 0usize..3, at in any::<u64>()) {
        let doc = json_docs()[which];
        prop_assert!(Json::parse(doc).is_ok(), "the fixture document parses");
        prop_assert!(Json::parse(cut(doc, at as usize)).is_err());
        prop_assert!(Json::parse(&with_control_byte(doc, at as usize)).is_err());
    }

    #[test]
    fn toml_reader_refuses_cut_and_garbled_specs(line in any::<u64>(), at in any::<u64>()) {
        prop_assert!(toml_to_json(SPEC_TOML).is_ok());
        let lines: Vec<&str> = SPEC_TOML.lines().collect();
        // Cut inside a string, an array or a section header: the line's
        // opening delimiter survives, its closing one does not.
        let open: Vec<(usize, usize)> = lines
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.find(['"', '[']).map(|p| (i, p)))
            .filter(|(i, _)| !lines[*i].starts_with('#'))
            .collect();
        let (i, p) = open[line as usize % open.len()];
        let closing = lines[i].trim_end().len() - 1;
        let end = p + 1 + at as usize % (closing - p);
        let text = lines[..i].join("\n") + "\n" + &lines[i][..end];
        prop_assert!(toml_to_json(&text).is_err(), "{text:?}");
        // A `key = value` line without its `=`, and a repeated key.
        let kv: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].contains('=')).collect();
        let k = kv[line as usize % kv.len()];
        let text = replace_line(SPEC_TOML, k, |l| l.replacen('=', " ", 1));
        prop_assert!(toml_to_json(&text).is_err(), "{text:?}");
        let text = replace_line(SPEC_TOML, k, |l| format!("{l}\n{l}"));
        prop_assert!(toml_to_json(&text).is_err(), "{text:?}");
        // A misspelt key parses as TOML but is not a spec key.
        let text = replace_line(SPEC_TOML, k, |l| format!("x{}", l.trim_start()));
        prop_assert!(toml_to_json(&text).is_ok());
        prop_assert!(CampaignSpec::parse(&text).is_err(), "{text:?}");
    }

    #[test]
    fn store_reader_refuses_cut_and_garbled_lines(line in any::<u64>(), at in any::<u64>()) {
        let f = fixture();
        let lines: Vec<&str> = f.store.lines().collect();
        let i = line as usize % lines.len();
        let path = tmp(&format!("store-{line}-{at}")).with_extension("jsonl");
        for text in [
            replace_line(&f.store, i, |l| cut(l, at as usize).to_string()),
            replace_line(&f.store, i, |l| with_control_byte(l, at as usize)),
        ] {
            fs::write(&path, &text).expect("writable");
            prop_assert!(ResultStore::open(&path).load().is_err(), "line {i}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_replay_refuses_garbled_lines_and_drops_a_torn_tail(line in any::<u64>(), at in any::<u64>()) {
        let f = fixture();
        let lines: Vec<&str> = f.journal.lines().collect();
        let last = lines.len() - 1;
        let dir = tmp(&format!("journal-{line}-{at}"));
        fs::create_dir_all(&dir).expect("writable");
        let c = Campaign { dir: dir.clone(), ..f.campaign.clone() };
        let replay = |text: &str| {
            fs::write(journal_path(&dir, 0), text).expect("writable");
            campaign_status(&c)
        };
        let i = line as usize % last;
        for text in [
            replace_line(&f.journal, i, |l| cut(l, at as usize).to_string()),
            replace_line(&f.journal, i, |l| with_control_byte(l, at as usize)),
        ] {
            prop_assert!(replay(&text).is_err(), "line {i}");
        }
        let torn: String = lines[..last].iter().map(|l| format!("{l}\n")).collect::<String>()
            + cut(lines[last], at as usize);
        let records_before = lines[1..last]
            .iter()
            .filter(|l| Json::parse(l).is_ok_and(|d| d.get("cell").is_some()))
            .count();
        let status = replay(&torn).expect("a torn tail replays");
        prop_assert_eq!(status.done, records_before as u64);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn fixture_replays_intact() {
    let f = fixture();
    let status = campaign_status(&f.campaign).expect("replays");
    assert_eq!(status.done, f.campaign.spec.cell_count());
    assert_eq!(
        ResultStore::open(f.campaign.dir.join("store.jsonl"))
            .load()
            .expect("loads")
            .len() as u64,
        f.campaign.spec.cell_count()
    );
    assert!(Json::parse(&f.report).is_ok());
}
