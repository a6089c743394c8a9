//! Figure 14: breakdown of the events that set takeover bits while ways are
//! being transferred (donor hit/miss, recipient hit/miss fractions).

use coop_core::TakeoverEventKind;
use simkit::table::Table;

use crate::experiments::{cached_sweep, Experiment};
use crate::scale::SimScale;

/// Builds Figure 14 from the two-core sweep's Cooperative runs.
pub fn figure(scale: SimScale) -> Experiment {
    let sweep = cached_sweep(2, scale);
    let mut headers = vec!["Group".to_string()];
    headers.extend(TakeoverEventKind::ALL.iter().map(|k| k.label().to_string()));
    let mut table = Table::new(headers);

    let mut totals = [0u64; 4];
    let mut donor_hit_plus_recipient_miss = Vec::new();
    for g in 0..sweep.groups.len() {
        let ev = sweep.run(g, "cooperative").takeover_events;
        let total: u64 = ev.iter().sum();
        for (t, &e) in totals.iter_mut().zip(ev.iter()) {
            *t += e;
        }
        let fracs: Vec<f64> = ev
            .iter()
            .map(|&e| {
                if total == 0 {
                    0.0
                } else {
                    e as f64 / total as f64
                }
            })
            .collect();
        if total > 0 {
            // ALL order: recipient-miss, recipient-hit, donor-miss, donor-hit.
            donor_hit_plus_recipient_miss.push(fracs[0] + fracs[3]);
        }
        table.row_f64(&sweep.groups[g].label, &fracs, 3);
    }
    let grand: u64 = totals.iter().sum();
    let avg: Vec<f64> = totals
        .iter()
        .map(|&t| {
            if grand == 0 {
                0.0
            } else {
                t as f64 / grand as f64
            }
        })
        .collect();
    table.row_f64("AVG", &avg, 3);

    let two_thirds = if donor_hit_plus_recipient_miss.is_empty() {
        0.0
    } else {
        donor_hit_plus_recipient_miss.iter().sum::<f64>()
            / donor_hit_plus_recipient_miss.len() as f64
    };
    Experiment {
        id: "Figure 14".to_string(),
        title: "Events that set takeover bits during way transfers".to_string(),
        table,
        notes: vec![format!(
            "paper: donor hits + recipient misses are ~2/3 of events in most groups; measured average {two_thirds:.2}"
        )],
        perf: Some(sweep.perf),
    }
}
