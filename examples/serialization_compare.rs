//! Compares all seven wire formats on the real S1AP message set: encode +
//! native-read times and encoded sizes (the §4.4 / Fig. 18–20 story).
//!
//! ```text
//! cargo run --example serialization_compare --release
//! ```

use neutrino::codec::calibrate::{measure, CalibrationOptions};
use neutrino::codec::CodecKind;
use neutrino::messages::MessageKind;

fn main() {
    let messages = [
        MessageKind::InitialUeMessage,
        MessageKind::InitialContextSetupRequest,
        MessageKind::InitialContextSetupResponse,
        MessageKind::ERabSetupRequest,
        MessageKind::ERabSetupResponse,
        MessageKind::ServiceRequest,
        MessageKind::Paging,
    ];
    let opts = CalibrationOptions {
        iters_per_batch: 800,
        batches: 5,
        warmup_iters: 200,
    };
    for kind in messages {
        let schema = kind.schema();
        let value = kind.sample(7).to_value();
        println!("\n{kind}:");
        println!(
            "  {:<14} {:>12} {:>12} {:>10}",
            "codec", "encode", "read", "size"
        );
        for codec_kind in CodecKind::ALL {
            let codec = codec_kind.codec();
            if !codec.supports(&schema) {
                println!(
                    "  {:<14} {:>36}",
                    codec_kind.name(),
                    "(cannot express this message)"
                );
                continue;
            }
            let c = measure(codec, &schema, &value, opts).expect("measure");
            println!(
                "  {:<14} {:>10}ns {:>10}ns {:>8}B",
                codec_kind.name(),
                c.encode.as_nanos(),
                c.access.as_nanos(),
                c.wire_bytes
            );
        }
    }
    println!();
    println!("ASN.1 PER is the smallest and slowest; fastbuf trades bytes for speed;");
    println!("the svtable optimization (fastbuf-opt) claws back union metadata (§4.4).");
}
