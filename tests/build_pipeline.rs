//! Golden output of the deployment pipeline.
//!
//! Every table, campaign victim and verifier cell is a program built under
//! one deployment vehicle: native, a scheme's compiler plugin, or an SSP
//! build upgraded by the binary rewriter.  This test folds what the
//! pipeline produces into one SHA-1 word:
//!
//! * the instructions of the program `build_machine_at` launches, for
//!   every compiler scheme, both rewriter link modes and the native build,
//!   over the canonical victim, one generated victim, one SPEC program and
//!   one server model, at O0 and O2,
//! * `binary_size` of every such build at O0,
//! * the program and frame geometry of every `VictimSnapshot` (each scheme
//!   under both deployments).
//!
//! The golden moves only with a deliberate change to what a build
//! produces; re-record it then and say why.

use polycanary::attacks::victim::victim_module;
use polycanary::attacks::{Deployment, VictimKey, VictimSnapshot};
use polycanary::compiler::{ModuleDef, OptLevel};
use polycanary::core::SchemeKind;
use polycanary::crypto::sha1::Sha1;
use polycanary::vm::Program;
use polycanary::workloads::{binary_size, build_machine_at, spec_suite, Build, ServerModel};

const GOLDEN_BUILDS: u64 = 0xf28f_dc40_0459_6927;

/// Every deployment vehicle: the protected ones, then the native build.
fn vehicles() -> impl Iterator<Item = Build> {
    Build::ALL.into_iter().chain([Build::Native])
}

fn modules() -> Vec<ModuleDef> {
    vec![
        victim_module(64, 0),
        victim_module(64, 0x5EED_0B11_D000_0001),
        spec_suite()[0].module(),
        ServerModel::NginxLike.module(),
    ]
}

fn fold_bytes(sha: &mut Sha1, bytes: &[u8]) {
    sha.update(&(bytes.len() as u64).to_le_bytes());
    sha.update(bytes);
}

fn fold_program(sha: &mut Sha1, program: &Program) {
    sha.update(&(program.len() as u64).to_le_bytes());
    for (id, function) in program.iter() {
        sha.update(&(id.0 as u64).to_le_bytes());
        fold_bytes(sha, function.name().as_bytes());
        sha.update(&function.entry_addr().to_le_bytes());
        fold_bytes(sha, format!("{:?}", function.insts()).as_bytes());
    }
    fold_bytes(sha, format!("{:?}", program.extra_sections()).as_bytes());
    fold_bytes(sha, format!("{:?}", program.entry()).as_bytes());
    sha.update(&program.text_size().to_le_bytes());
    sha.update(&program.binary_size().to_le_bytes());
}

#[test]
fn every_deployment_vehicle_builds_its_golden_programs() {
    let mut sha = Sha1::new();
    for module in modules() {
        for build in vehicles() {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let machine = build_machine_at(&module, build, opt, 0xB11D);
                fold_program(&mut sha, machine.program());
            }
            sha.update(&binary_size(&module, build).to_le_bytes());
        }
    }
    for scheme in SchemeKind::ALL {
        for deployment in [Deployment::Compiler, Deployment::BinaryRewriter] {
            let key = VictimKey { scheme, deployment, buffer_size: 64, program: 0 };
            let snapshot = VictimSnapshot::build(key);
            fold_program(&mut sha, snapshot.vm_snapshot().program());
            let geometry = snapshot.geometry();
            sha.update(&(geometry.filler_len as u64).to_le_bytes());
            sha.update(&(geometry.canary_region_len as u64).to_le_bytes());
        }
    }
    let digest = sha.finalize();
    let word = u64::from_be_bytes(digest[..8].try_into().expect("SHA-1 has 20 bytes"));
    assert_eq!(word, GOLDEN_BUILDS, "digest {word:#018x} differs from the golden");
}
