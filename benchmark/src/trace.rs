//! Writes the spans a traced run kept in memory to
//! `benchmark/out/trace.<workload>.json` when the run ends.

use crate::load::{PhaseOut, NO_PARENT};
use std::fmt::Write as _;

/// Spans written per phase, from its first window; the metrics use every
/// span recorded.
const WRITTEN_PER_PHASE: usize = 40_000;

pub fn write(workload: &str, outs: &[PhaseOut]) {
    let mut doc = format!(
        "{{\"workload\": \"{workload}\", \"time_unit\": \"ns from run start\", \
         \"span\": [\"name\", \"start\", \"end\", \"parent (index in this phase, null for a request)\", \"request id\"], \
         \"phases\": ["
    );
    for (i, out) in outs.iter().filter(|o| o.phase.traced).enumerate() {
        if i > 0 {
            doc.push(',');
        }
        // The first window's spans, whose parent indices are its own.
        let spans = &out.windows[0].spans;
        let written = spans.len().min(WRITTEN_PER_PHASE);
        write!(
            doc,
            "\n{{\"name\": \"{}\", \"recorded\": {}, \"spans\": [",
            out.phase.name,
            out.spans().count()
        )
        .unwrap();
        for (j, s) in spans[..written].iter().enumerate() {
            if j > 0 {
                doc.push(',');
            }
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            write!(
                doc,
                "\n[\"{}\",{},{},{},{}]",
                s.name, s.start, s.end, parent, s.req
            )
            .unwrap();
        }
        doc.push_str("]}");
    }
    doc.push_str("]}\n");
    let path = crate::out_dir().join(format!("trace.{workload}.json"));
    std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
