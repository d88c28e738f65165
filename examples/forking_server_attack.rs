//! The headline experiment of the paper (§II-B, §VI-C): the byte-by-byte
//! attack against a long-lived forking server, under classic SSP and under
//! P-SSP — driven through the server's connection loop, the way a remote
//! attacker actually sees it.
//!
//! Run with: `cargo run --release --example forking_server_attack`

use polycanary::attacks::{ByteByByteAttack, ForkingServer, VictimConfig};
use polycanary::core::SchemeKind;

fn main() {
    println!("byte-by-byte attack against a forking worker-per-connection server\n");

    // The reconnect loop, by hand: every probe is one connection served by a
    // freshly forked worker.  Under SSP each worker inherits the parent's
    // canary, so a response (instead of a reset) confirms a guessed byte.
    let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 0xD5A7));
    let outcome = server.connect().send(b"GET / HTTP/1.1");
    println!(
        "handshake: policy = {}, first connection {:?}, {} connection(s) served\n",
        server.canary_policy(),
        outcome,
        server.connections_served()
    );

    for (scheme, budget) in [
        (SchemeKind::Ssp, 5_000),
        (SchemeKind::RafSsp, 5_000),
        (SchemeKind::Pssp, 10_000),
        (SchemeKind::PsspNt, 10_000),
        (SchemeKind::PsspBin32, 10_000),
    ] {
        let mut server = ForkingServer::new(VictimConfig::new(scheme, 0xD5A7));
        let geometry = server.geometry();
        let result = ByteByByteAttack::with_budget(budget).run(&mut server, geometry, scheme);
        if result.success {
            println!(
                "{:<24} BROKEN  — canary recovered and control flow hijacked after {} connections",
                scheme.name(),
                server.connections_served()
            );
        } else {
            println!(
                "{:<24} holds   — attack gave up after {} connections ({} workers crashed, \
                 canaries {})",
                scheme.name(),
                server.connections_served(),
                server.crashed_workers(),
                server.canary_policy()
            );
        }
    }

    println!("\nthe paper reports ~8*2^7 = 1024 expected requests to break SSP;");
    println!("every re-randomizing scheme denies the attacker any accumulated progress.");
}
