//! Hostile `.rom` files: whatever the bytes, [`ReducedOrderModel::load`]
//! answers with a typed error — no panic, no allocation sized from an
//! unchecked header word (which would abort the process and take this test
//! binary with it) — and a cached build over such a file rebuilds it, as it
//! does over a valid file built for other materials.
//!
//! File layout (little-endian 8-byte words): magic, version, 4 geometry
//! lengths, 3 cell counts, kind, 3 interpolation counts, material count,
//! 4 words per material, basis count, fine DoF count — then the basis
//! functions, the thermal basis, `A_elem` and `b_elem`.

use std::path::{Path, PathBuf};

use morestress_core::{
    InterpolationGrid, LocalStage, LocalStageOptions, MoreStressSimulator, ReducedOrderModel,
    RomError,
};
use morestress_fem::{Material, MaterialSet};
use morestress_mesh::{BlockKind, BlockResolution, TsvGeometry, MAT_CU};

const Z_CELLS_OFFSET: usize = 64;
const KIND_OFFSET: usize = 72;
const MATERIAL_COUNT_OFFSET: usize = 104;
const HOSTILE_WORDS: [u64; 3] = [0, u64::MAX, 1 << 40];

/// A per-test file under the temp dir (tests run concurrently).
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morestress-rom-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The bytes of a small valid `.rom`.
fn valid_rom_bytes() -> Vec<u8> {
    let rom = LocalStage::new(
        &TsvGeometry::paper_defaults(15.0),
        &BlockResolution::coarse(),
        InterpolationGrid::new([2, 2, 2]),
        &MaterialSet::tsv_defaults(),
        BlockKind::Tsv,
    )
    .build(&LocalStageOptions::default())
    .expect("local stage builds");
    let path = temp_path("valid.rom");
    rom.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

fn word_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

fn with_word(bytes: &[u8], offset: usize, word: u64) -> Vec<u8> {
    let mut patched = bytes.to_vec();
    patched[offset..offset + 8].copy_from_slice(&word.to_le_bytes());
    patched
}

/// Offset of the basis-count word; the header ends 16 bytes later.
fn basis_count_offset(bytes: &[u8]) -> usize {
    MATERIAL_COUNT_OFFSET + 8 + 32 * word_at(bytes, MATERIAL_COUNT_OFFSET) as usize
}

/// Writes `bytes` to `path` and loads it, failing the test on a panic.
fn load_bytes(path: &Path, bytes: &[u8]) -> Result<ReducedOrderModel, RomError> {
    std::fs::write(path, bytes).expect("write");
    std::panic::catch_unwind(|| ReducedOrderModel::load(path))
        .unwrap_or_else(|_| panic!("load panicked on {}", path.display()))
}

fn assert_rejected(label: &str, result: Result<ReducedOrderModel, RomError>) {
    match result {
        Err(RomError::Format(_) | RomError::Io(_)) => {}
        Err(other) => panic!("{label}: expected Format or Io, got {other:?}"),
        Ok(_) => panic!("{label}: a hostile file loaded"),
    }
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a of the saved `.rom` of a `coarse` block of `kind` on the
/// interpolation grid `counts`.
fn rom_hash(kind: BlockKind, counts: [usize; 3]) -> u64 {
    let rom = LocalStage::new(
        &TsvGeometry::paper_defaults(15.0),
        &BlockResolution::coarse(),
        InterpolationGrid::new(counts),
        &MaterialSet::tsv_defaults(),
        kind,
    )
    .build(&LocalStageOptions::default())
    .expect("local stage builds");
    let path = temp_path(&format!("pinned-{kind:?}-{counts:?}.rom"));
    rom.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    fnv1a(&bytes)
}

#[test]
fn paper_interpolation_rom_bytes_are_pinned() {
    // The paper's (4,4,4) grid solves 168 basis columns plus the thermal
    // one: 21 full 8-column blocks of the triangular sweep and a 1-wide
    // tail. The saved bytes carry every basis function and `A_elem`, so
    // any bit the local stage moves changes the hash.
    for (kind, expected) in [
        (BlockKind::Tsv, 0xc07d_7546_455b_db43),
        (BlockKind::Dummy, 0x394d_6f2f_a386_6400),
    ] {
        let hash = rom_hash(kind, [4, 4, 4]);
        assert_eq!(hash, expected, "{kind:?}: {hash:#018x}");
    }
}

#[test]
fn other_interpolation_grids_rom_bytes_are_pinned() {
    // n = 24, 78, 294 and 162 basis columns: the Galerkin projection's
    // 16-column panels end in tails of 8, 14, 6 and 2 columns, and the
    // sweep's 8-column blocks in tails of 1, 7, 7 and 3.
    for (counts, tsv, dummy) in [
        ([2, 2, 2], 0xac8f_44f8_9fcb_49d9, 0x66cd_1423_9fad_6adf),
        ([3, 3, 3], 0xea95_05b4_7755_9930, 0xa962_81ae_cf80_2f22),
        ([5, 5, 5], 0x21e0_dd1c_319b_21f4, 0x0c13_63ef_307f_0133),
        ([3, 4, 5], 0xa02f_d033_3baf_710a, 0x2ed5_656b_4fcf_657f),
    ] {
        for (kind, expected) in [(BlockKind::Tsv, tsv), (BlockKind::Dummy, dummy)] {
            let hash = rom_hash(kind, counts);
            assert_eq!(hash, expected, "{kind:?} {counts:?}: {hash:#018x}");
        }
    }
}

#[test]
fn save_load_save_is_byte_identical() {
    let bytes = valid_rom_bytes();
    let path = temp_path("resave.rom");
    let rom = load_bytes(&path, &bytes).expect("a valid file loads");
    rom.save(&path).expect("save");
    assert_eq!(std::fs::read(&path).expect("read"), bytes);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let bytes = valid_rom_bytes();
    let path = temp_path("truncated.rom");
    let counts = basis_count_offset(&bytes);
    let header = counts + 16;
    let n = word_at(&bytes, counts) as usize;
    let ndof = word_at(&bytes, counts + 8) as usize;
    let mut cuts = vec![0, 8, 16, 48, 72, 80, 104, 112, counts, counts + 8, header];
    cuts.extend([
        header + 8 * ndof,           // after the first basis function
        header + 8 * n * ndof,       // after the basis
        header + 8 * (n + 1) * ndof, // after the thermal basis
        bytes.len() - 8 * n,         // after A_elem
        bytes.len() - 8,             // one value short
        bytes.len() - 1,             // one byte short
    ]);
    for cut in cuts {
        assert!(cut < bytes.len());
        assert_rejected(
            &format!("cut at {cut} of {}", bytes.len()),
            load_bytes(&path, &bytes[..cut]),
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hostile_header_words_are_rejected() {
    let bytes = valid_rom_bytes();
    let path = temp_path("hostile.rom");
    let counts = basis_count_offset(&bytes);
    // Version, geometry, cell counts, interpolation counts, material count,
    // basis count, fine DoF count: no value here is a valid file.
    let strict = (8..KIND_OFFSET)
        .chain(KIND_OFFSET + 8..MATERIAL_COUNT_OFFSET + 8)
        .chain(counts..counts + 16)
        .step_by(8);
    for offset in strict {
        for word in HOSTILE_WORDS {
            assert_rejected(
                &format!("word at {offset} = {word:#x}"),
                load_bytes(&path, &with_word(&bytes, offset, word)),
            );
        }
    }
    // The kind word and the material table cannot be cross-checked against
    // anything (kind 0 is a dummy block, id 0 is copper, ν = 0 and α = 0 are
    // materials): some patterns are valid files. They must still not panic,
    // and what they reject must be typed.
    for offset in std::iter::once(KIND_OFFSET).chain((MATERIAL_COUNT_OFFSET + 8..counts).step_by(8))
    {
        for word in HOSTILE_WORDS {
            if let Err(e) = load_bytes(&path, &with_word(&bytes, offset, word)) {
                assert_rejected(&format!("word at {offset} = {word:#x}"), Err(e));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_magic_and_trailing_garbage_are_rejected() {
    let bytes = valid_rom_bytes();
    let path = temp_path("garbage.rom");
    for byte in 0..8 {
        let mut flipped = bytes.clone();
        flipped[byte] ^= 0x01;
        assert_rejected(&format!("magic byte {byte}"), load_bytes(&path, &flipped));
    }
    assert_rejected("version 2", load_bytes(&path, &with_word(&bytes, 8, 2)));
    for extra in [1, 8, 4096] {
        let mut longer = bytes.clone();
        longer.extend(std::iter::repeat_n(0xa5, extra));
        assert_rejected(
            &format!("{extra} trailing bytes"),
            load_bytes(&path, &longer),
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cached_build_over_a_hostile_file_rebuilds_and_overwrites_it() {
    let stem = temp_path("cache");
    let rom_path = temp_path("cache-tsv.rom");
    let build = || {
        MoreStressSimulator::builder(&TsvGeometry::paper_defaults(15.0))
            .interpolation([2, 2, 2])
            .cache_stem(stem.clone())
            .build()
            .expect("the simulator builds whatever the cache file holds")
    };
    build();
    let good = std::fs::read(&rom_path).expect("the build left a cache file");
    let hostile = [
        with_word(&good, Z_CELLS_OFFSET, 1 << 40),
        with_word(&good, Z_CELLS_OFFSET, 0),
        good[..good.len() / 2].to_vec(),
        b"MORESTR\x01".to_vec(),
    ];
    for bytes in hostile {
        assert_rejected("the hostile cache file", load_bytes(&rom_path, &bytes));
        build();
        assert_eq!(
            std::fs::read(&rom_path).expect("cache file"),
            good,
            "the rebuild overwrites the hostile file with the model's own bytes"
        );
    }
    let _ = std::fs::remove_file(&rom_path);
}

#[test]
fn cached_build_with_other_materials_rebuilds_and_overwrites_it() {
    let geom = TsvGeometry::paper_defaults(15.0);
    let stem = temp_path("materials");
    let rom_path = temp_path("materials-tsv.rom");
    let build = |materials: &MaterialSet| {
        MoreStressSimulator::builder(&geom)
            .interpolation([2, 2, 2])
            .materials(materials.clone())
            .cache_stem(stem.clone())
            .build()
            .expect("the simulator builds")
    };
    let defaults = MaterialSet::tsv_defaults();
    build(&defaults);
    let stale = std::fs::read(&rom_path).expect("the build left a cache file");

    let mut stiffer = defaults.clone();
    let cu = *stiffer.get(MAT_CU).expect("copper is registered");
    stiffer.insert(
        MAT_CU,
        Material {
            youngs: 2.0 * cu.youngs,
            ..cu
        },
    );
    let sim = build(&stiffer);
    let uncached = LocalStage::new(
        &geom,
        &BlockResolution::coarse(),
        InterpolationGrid::new([2, 2, 2]),
        &stiffer,
        BlockKind::Tsv,
    )
    .build(&LocalStageOptions::default())
    .expect("local stage builds");
    let bits = |rom: &ReducedOrderModel| -> Vec<u64> {
        let a_elem = rom.element_stiffness().as_slice();
        a_elem.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(
        bits(sim.tsv_model()),
        bits(&uncached),
        "a cache file of other materials must not be reused"
    );
    assert_ne!(
        std::fs::read(&rom_path).expect("cache file"),
        stale,
        "the rebuild overwrites the stale file"
    );
    let reloaded = ReducedOrderModel::load(&rom_path).expect("the new file loads");
    assert_eq!(reloaded.materials(), &stiffer);
    let _ = std::fs::remove_file(&rom_path);
}
