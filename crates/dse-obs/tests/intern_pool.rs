//! The telemetry codec keeps every inline metric name it decodes for the
//! life of the process, so the pool is bounded: once it holds
//! `MAX_INLINE_NAMES` names, a frame naming a new one is corrupt. Its own
//! test binary, so no other test shares the pool.

use dse_obs::{MetricKey, TelemetryDelta, MAX_INLINE_NAMES};

/// A one-counter frame whose counter name rides inline.
fn frame(name: String) -> Vec<u8> {
    let name: &'static str = Box::leak(name.into_boxed_str());
    TelemetryDelta {
        counters: vec![(MetricKey::pe("kernel", name, 0), 1)],
        ..TelemetryDelta::default()
    }
    .encode()
}

#[test]
fn distinct_inline_names_fill_the_pool_and_no_more() {
    let frames: Vec<_> = (0..10_000).map(|i| frame(format!("name_{i}"))).collect();
    let ok: Vec<bool> = frames
        .iter()
        .map(|f| TelemetryDelta::decode(f).is_ok())
        .collect();
    // The first names fill the pool; every later new name is refused.
    assert!(ok[..MAX_INLINE_NAMES].iter().all(|&o| o));
    assert!(ok[MAX_INLINE_NAMES..].iter().all(|&o| !o));
    // A name the pool holds still decodes; a new one still does not.
    assert!(TelemetryDelta::decode(&frames[0]).is_ok());
    assert!(TelemetryDelta::decode(&frame("one_more".into())).is_err());
}
