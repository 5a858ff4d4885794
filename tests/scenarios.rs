//! Scenario-engine contract tests: bit-identity of the seven recession
//! series against their pre-refactor bytes, determinism of the Poisson
//! event process across runs and thread schedules, and the empirical
//! statistics of realized event streams.
//!
//! The bit patterns in [`golden`] were captured from the generator as it
//! existed before the scenario grammar replaced `CurveSpec`/`Dip`
//! (commit a1d9e6e): any change to the arithmetic of
//! `ScenarioSpec::generate`, `Shock::loss_at`, or the noise stream shows
//! up here as a hard failure, not a tolerance drift.

use resilience_core::fit::FitConfig;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy};
use resilience_data::recessions::Recession;
use resilience_data::scenario::{catalog, Drift, EventProcess, Noise, ScenarioSpec, ShapeKind};
use resilience_obs::{replay, Event, JsonlObserver, RecordingObserver};
use resilience_optim::Parallelism;
use std::sync::Arc;

/// Pre-refactor f64 bit patterns of the seven payroll series.
mod golden {
    /// 1974-76.
    #[rustfmt::skip]
    pub const R1974_76: [u64; 48] = [
        0x3FF0000000000000, 0x3FF005A94D1EEC34, 0x3FF007833C971A8D, 0x3FF00682A862CC92,
        0x3FF007333F241FF2, 0x3FEFF73DC2DDDF12, 0x3FEFEA852466C77B, 0x3FEFCCD4917B82B8,
        0x3FEFB5D2A383751F, 0x3FEF9A690796AA45, 0x3FEF8023794D57FE, 0x3FEF63040C6F13F6,
        0x3FEF3FD7B0415F5D, 0x3FEF2A6EC3F05647, 0x3FEF25413CF1430F, 0x3FEF17D0C5A066D2,
        0x3FEF1EE084B25B1A, 0x3FEF70EB68BCCC81, 0x3FEFAD2016E90DF3, 0x3FEFDDB493B5210C,
        0x3FF00200DB759C65, 0x3FF01BB70B8A4495, 0x3FF02CC3FB3DF146, 0x3FF04248DF233C46,
        0x3FF04C159D225B92, 0x3FF058451E1A037A, 0x3FF068FABA34C5F0, 0x3FF0710787EE9901,
        0x3FF07A3BAB43CF68, 0x3FF086117FFDB470, 0x3FF0889B4E2E1987, 0x3FF09420C209F650,
        0x3FF09B1F05CC9678, 0x3FF0A5FB92BADD0F, 0x3FF0A9AD3DEA99D4, 0x3FF0B2F10128C806,
        0x3FF0B86B2EFDA207, 0x3FF0BAF6EA324BF8, 0x3FF0C1ACFC7E534D, 0x3FF0C7603FCF44D9,
        0x3FF0D195783BEAA2, 0x3FF0D8C34973D314, 0x3FF0D69AF2DD566A, 0x3FF0DE2212A5C831,
        0x3FF0E520DE3153FB, 0x3FF0EAE29CFA3A6B, 0x3FF0F0DC862B6EF4, 0x3FF0F4CC15AD3F4C,
    ];

    /// 1980.
    #[rustfmt::skip]
    pub const R1980: [u64; 48] = [
        0x3FF0000000000000, 0x3FEFF6FF2E3B2361, 0x3FEFCCFDDF814622, 0x3FEF8E18289DDD7B,
        0x3FEF558F20116A40, 0x3FEF1FD4B087E500, 0x3FEF11607F1ABF6F, 0x3FEF6A605E980A4B,
        0x3FEFA800C8B6CBD8, 0x3FEFD50E3AB96E1E, 0x3FEFE95C936A50FF, 0x3FEFEEF11B7F969B,
        0x3FEFFE5E3752E50F, 0x3FEFFDE364C3728A, 0x3FF0045830B989D0, 0x3FF007120B3C3A80,
        0x3FF00201E37407AC, 0x3FEFE57B3FEE44B0, 0x3FEFE098FDE53049, 0x3FEFB6B0D7936B6C,
        0x3FEF931C703A61F7, 0x3FEF78DB18C722AB, 0x3FEF5900443EE74F, 0x3FEF3B0AECEA6090,
        0x3FEF23256D7B030D, 0x3FEF1356684D47FF, 0x3FEF0D080C90FF43, 0x3FEF507826AF4B3F,
        0x3FEF7434838DED83, 0x3FEFA1D43968A84A, 0x3FEFBE73E94F15E2, 0x3FEFCFE911A3DD30,
        0x3FEFE314C51E164C, 0x3FEFEE56F45261EF, 0x3FEFF7751ECADCF7, 0x3FF000C4DF248865,
        0x3FF007D2C81BFAF7, 0x3FF005AA2C420088, 0x3FF0087F9CDD7A8C, 0x3FF00C85B09975BD,
        0x3FF00F5F7173EA05, 0x3FF00D63C77C2F08, 0x3FF01184EC1F1874, 0x3FF013C168A71443,
        0x3FF00F886F87A213, 0x3FF012D3E3D0491E, 0x3FF01590AA4414CB, 0x3FF0135A57E4BC55,
    ];

    /// 1981-83.
    #[rustfmt::skip]
    pub const R1981_83: [u64; 48] = [
        0x3FF0000000000000, 0x3FF00D1B35A9B454, 0x3FF00C47C638A329, 0x3FF012128C4D0559,
        0x3FF00FE2D2FAB083, 0x3FF00FA2D7D1542A, 0x3FF005BD1B7757C7, 0x3FEFF43A0892F301,
        0x3FEFE4849CB29D3F, 0x3FEFC304ABC40909, 0x3FEF937E8CB57392, 0x3FEF722C7EA3F819,
        0x3FEF44CF62CFE0D6, 0x3FEF360D3579E7A3, 0x3FEF13F0804B14BD, 0x3FEF0683558027A8,
        0x3FEEFE0E3E85AEEB, 0x3FEEFE909049428C, 0x3FEF5E81C425D96F, 0x3FEFB0801454E3D3,
        0x3FEFF555CE69D5A9, 0x3FF019A1724C9847, 0x3FF033532E22D8F9, 0x3FF053F474124A25,
        0x3FF06E61AD0CFE01, 0x3FF07D00F75EC955, 0x3FF09097301F96C1, 0x3FF0A5923F0CACE1,
        0x3FF0BA71339CD452, 0x3FF0C1F18CB04CB2, 0x3FF0D3237F8CAACC, 0x3FF0E05A5D1842CC,
        0x3FF0EC31110ED982, 0x3FF0FB31EF95BC79, 0x3FF103F8BFB1AE4D, 0x3FF1136811DE0A8E,
        0x3FF11AAD123896EE, 0x3FF12435BF100F47, 0x3FF1332CA18FD629, 0x3FF1378DEFD5CC61,
        0x3FF14052BE911961, 0x3FF14E4428F27ABD, 0x3FF150A2DE5F2ABA, 0x3FF15E2EBED04A94,
        0x3FF169C483F8908B, 0x3FF170C67CA6EF93, 0x3FF179B31D6AB2CA, 0x3FF180B457BF1466,
    ];

    /// 1990-93.
    #[rustfmt::skip]
    pub const R1990_93: [u64; 48] = [
        0x3FF0000000000000, 0x3FF002FD398964FC, 0x3FEFFEF0A8D1B97A, 0x3FEFE85E52B55F34,
        0x3FEFE1B3C84B21EF, 0x3FEFDCBB829F9CCB, 0x3FEFC10FC1AEFCAD, 0x3FEFB0D702DDE5BF,
        0x3FEFAC22C508CB14, 0x3FEF9D008D76056F, 0x3FEF95028E8DDA12, 0x3FEF94EF0A2D2F6D,
        0x3FEFA681FD544D01, 0x3FEFA3AF16414A11, 0x3FEFB06710FFAC06, 0x3FEFB734B6081CA9,
        0x3FEFC0024EC99DAD, 0x3FEFCBC3103C3DBF, 0x3FEFDEAFF769934F, 0x3FEFEBD18492F7C1,
        0x3FEFF2B185B2D33A, 0x3FF002DC6BD2F55C, 0x3FF008ED36FD4FC5, 0x3FF013F5D193A8DD,
        0x3FF0168D24BEF1EC, 0x3FF01E79684F9656, 0x3FF0239CCC324D1A, 0x3FF02D461E94EABF,
        0x3FF0329625083BCE, 0x3FF03C0CF7919578, 0x3FF04AFC6DD47D7C, 0x3FF04B1EF5AB47AD,
        0x3FF0513886EC9726, 0x3FF056632477FB95, 0x3FF060EC23FB0F62, 0x3FF064EDFE172BA3,
        0x3FF06A84C29DDFB2, 0x3FF06FB5D4CD3D29, 0x3FF075262949DB28, 0x3FF0772B6A4A4B6A,
        0x3FF07DC1792E31ED, 0x3FF08055A4EEB187, 0x3FF084C909765644, 0x3FF0866CDF859429,
        0x3FF08797E5D9CCE5, 0x3FF08A442CD7D044, 0x3FF08F2F4780E544, 0x3FF0914DD68F491D,
    ];

    /// 2001-05.
    #[rustfmt::skip]
    pub const R2001_05: [u64; 48] = [
        0x3FF0000000000000, 0x3FEFFEAC24BC00C5, 0x3FEFF8F539822925, 0x3FEFF3D96CCC4FAD,
        0x3FEFFB69476CC8CB, 0x3FEFF2F52FCB5D20, 0x3FEFF2E904D808F8, 0x3FEFEA65955A2AA4,
        0x3FEFDDA0DFFBBB7C, 0x3FEFD7149D9A1574, 0x3FEFCFC0393D49E6, 0x3FEFC41F333BC4B4,
        0x3FEFBCEA9C1A5FC2, 0x3FEFB17D665C1E10, 0x3FEFAAD4E03B66F8, 0x3FEFA536E1DC69A2,
        0x3FEF9D92253A31A2, 0x3FEF88381CCADD79, 0x3FEF86BD42D7FF77, 0x3FEF6E91CC0B7131,
        0x3FEF73E0BB5067E3, 0x3FEF685117402C18, 0x3FEF6A53F8DB90E1, 0x3FEF6089B33DBAD3,
        0x3FEF5B25E5227828, 0x3FEF5B3E46CB5A05, 0x3FEF586973B00FBA, 0x3FEF5727ED3D7017,
        0x3FEF5A3D0C6B85A4, 0x3FEF5A0E4A5E91AC, 0x3FEF5FBFB418B0DF, 0x3FEF6A2E44738441,
        0x3FEF6F82BF16D44D, 0x3FEF7A348E6A5B86, 0x3FEF886CAE10E411, 0x3FEF9211C1AB4CD5,
        0x3FEFA0BDDDAC3B88, 0x3FEFB70D2E960E22, 0x3FEFC27D40815EB4, 0x3FEFCC032CD1BB86,
        0x3FEFDE12DDE142D5, 0x3FEFF32660DF2844, 0x3FF002986DB0F7A3, 0x3FF00ACF4F12E3FD,
        0x3FF00B9302CA1B8D, 0x3FF019675A563DA2, 0x3FF01D1EC8A1DE04, 0x3FF024A392EC4E28,
    ];

    /// 2007-09.
    #[rustfmt::skip]
    pub const R2007_09: [u64; 48] = [
        0x3FF0000000000000, 0x3FEFFCCF44A55046, 0x3FEFF76AC5D85D12, 0x3FEFFD9172CFD7E0,
        0x3FEFEAC9A281F0CC, 0x3FEFDF375266B93B, 0x3FEFC07D51E91B37, 0x3FEFAAA283A71838,
        0x3FEF987847946E66, 0x3FEF6A6157406F27, 0x3FEF5008FA73E915, 0x3FEF317F2169172E,
        0x3FEF0E0100D0B521, 0x3FEEE4BFA7E55B61, 0x3FEEBC9FF3A58E86, 0x3FEE9899B74EAD1F,
        0x3FEE6E2706110A11, 0x3FEE45807F2BFEE1, 0x3FEE2EFA6561BDE4, 0x3FEE0652A792C5FA,
        0x3FEDF911C8132EC3, 0x3FEDDC288C75CFC6, 0x3FEDC32C4A32EFDE, 0x3FEDB878963C9A52,
        0x3FEDA94C62A7A53D, 0x3FEDB28E7B9A37F7, 0x3FEDB1BED8D53F7F, 0x3FEDAB0896BD6783,
        0x3FEDB6911C2FC0C1, 0x3FEDBED4D7922D71, 0x3FEDC0B8E5106ABD, 0x3FEDC7D084A9D17D,
        0x3FEDC7E36D1E069E, 0x3FEDD88D6A62E088, 0x3FEDDFBF418B24D3, 0x3FEDE961600507D2,
        0x3FEDFBCEBDA1DE43, 0x3FEE08CB18513324, 0x3FEE0E791F05DED7, 0x3FEE1B2BFEF05817,
        0x3FEE2CF86EC65E66, 0x3FEE4131EEF87A5C, 0x3FEE479FBF409FB0, 0x3FEE501F34A68552,
        0x3FEE66796175004D, 0x3FEE7969F70CD6A5, 0x3FEE899CFE5DC7D9, 0x3FEE998CAB51E4F7,
    ];

    /// 2020-21.
    #[rustfmt::skip]
    pub const R2020_21: [u64; 24] = [
        0x3FF0000000000000, 0x3FEFD59EA256CB5A, 0x3FEB48A59507453E, 0x3FEC771E202607AB,
        0x3FED134B7A8F6B3A, 0x3FED9129C99BC344, 0x3FEDCFF05EBAFF0B, 0x3FEE0EE7ECD53FA7,
        0x3FEE22FC09CFF043, 0x3FEE2CDE530F832D, 0x3FEE3BF41DBBF0A5, 0x3FEE4AB4D94DE0FE,
        0x3FEE4EA44D012E7E, 0x3FEE594294D20D74, 0x3FEE49048DBB667D, 0x3FEE526755EDC8BA,
        0x3FEE64FDDFE1FBE1, 0x3FEE70554EA8989C, 0x3FEE654A1F5D7368, 0x3FEE6E0D202B46F6,
        0x3FEE7500C63D670E, 0x3FEE7AEF2EAE60EA, 0x3FEE747ACB31CFFE, 0x3FEE88AAC576216F,
    ];

    /// Pre-refactor FNV-1a hashes (offset 0xcbf29ce484222325, prime
    /// 0x100000001b3, over the little-endian bytes of each value's bits)
    /// of the six canonical `ShapeKind` series at `(n = 48, seed = 42)`.
    pub const SHAPE_HASHES: [(&str, u64); 6] = [
        ("V", 0x5987B2AA73BECDDA),
        ("U", 0x347F015D85873BF3),
        ("W", 0x031C867EBE472237),
        ("L", 0xFEC92D4CDE05312E),
        ("J", 0x333747ECB93689F4),
        ("K", 0x038DD005638F25DD),
    ];
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn seven_recessions_are_bit_identical_to_pre_refactor_output() {
    let expected: [(Recession, &[u64]); 7] = [
        (Recession::R1974_76, &golden::R1974_76),
        (Recession::R1980, &golden::R1980),
        (Recession::R1981_83, &golden::R1981_83),
        (Recession::R1990_93, &golden::R1990_93),
        (Recession::R2001_05, &golden::R2001_05),
        (Recession::R2007_09, &golden::R2007_09),
        (Recession::R2020_21, &golden::R2020_21),
    ];
    for (recession, golden_bits) in expected {
        let series = recession.payroll_index();
        assert_eq!(
            bits_of(series.values()),
            golden_bits,
            "{recession}: series bits drifted from the pre-refactor golden capture"
        );
    }
}

#[test]
fn canonical_shapes_are_bit_identical_to_pre_refactor_output() {
    for (label, expected_hash) in golden::SHAPE_HASHES {
        let kind = ShapeKind::ALL
            .into_iter()
            .find(|k| k.to_string() == label)
            .expect("shape label");
        let series = kind.scenario(48, 42).generate(label).unwrap();
        assert_eq!(
            fnv1a(series.values()),
            expected_hash,
            "shape {label}: series hash drifted from the pre-refactor golden capture"
        );
    }
}

fn poisson_scenario() -> ScenarioSpec {
    ScenarioSpec {
        n: 240,
        shocks: Vec::new(),
        events: Some(EventProcess {
            outage_rate: 0.06,
            mean_restore: 4.0,
            mean_depth: 0.06,
            max_depth: 0.25,
            seed: 0xD0B50,
            max_events: EventProcess::DEFAULT_MAX_EVENTS,
        }),
        drift: Drift::None,
        noise: Noise::None,
        floor: Some(0.0),
    }
}

#[test]
fn poisson_scenario_regenerates_bit_identically() {
    let spec = poisson_scenario();
    let a = spec.generate("a").unwrap();
    let b = spec.generate("b").unwrap();
    assert_eq!(bits_of(a.values()), bits_of(b.values()));
}

#[test]
fn poisson_realization_is_identical_across_spawned_threads() {
    // Counter-derived streams make the realization a pure function of
    // (spec, horizon): racing many threads over the same spec must yield
    // byte-identical event lists and series regardless of schedule.
    let spec = poisson_scenario();
    let reference = bits_of(spec.generate("ref").unwrap().values());
    let events_reference = spec.events.unwrap().realize(239.0).unwrap();
    // Threads of the test's own, outside any crew: the generators race on
    // purpose, which is what this test checks.
    #[allow(clippy::disallowed_methods)]
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                let series = spec.generate(format!("t{i}")).unwrap();
                let events = spec.events.unwrap().realize(239.0).unwrap();
                (bits_of(series.values()), events)
            })
        })
        .collect();
    for handle in handles {
        let (bits, events) = handle.join().unwrap();
        assert_eq!(bits, reference);
        assert_eq!(events, events_reference);
    }
}

#[test]
fn poisson_empirical_rate_matches_configured_rate() {
    // Over a long horizon the realized event count concentrates around
    // rate × horizon (Poisson: sd = sqrt(mean)); 5 sigma of slack keeps
    // the deterministic check meaningful without being seed-brittle.
    let horizon = 20_000.0;
    for seed in [1u64, 77, 2024] {
        let process = EventProcess {
            outage_rate: 0.05,
            mean_restore: 3.0,
            mean_depth: 0.05,
            max_depth: 0.2,
            seed,
            max_events: 8192,
        };
        let events = process.realize(horizon).unwrap();
        let expected = process.outage_rate * horizon; // 1000
        let sigma = expected.sqrt();
        let count = events.len() as f64;
        assert!(
            (count - expected).abs() < 5.0 * sigma,
            "seed {seed}: {count} events vs expected {expected} ± {sigma:.1}"
        );
    }
}

#[test]
fn poisson_series_has_no_nan_or_negative_values() {
    for seed in [3u64, 99, 0xBEEF] {
        let mut spec = poisson_scenario();
        if let Some(events) = &mut spec.events {
            events.seed = seed;
            // Dense, deep outages: the floor must absorb any stack-up.
            events.outage_rate = 0.5;
            events.mean_depth = 0.4;
            events.max_depth = 1.0;
        }
        let series = spec.generate(format!("dense-{seed}")).unwrap();
        for (t, v) in series.iter() {
            assert!(v.is_finite(), "seed {seed} t={t}: non-finite value");
            assert!(v >= 0.0, "seed {seed} t={t}: negative value {v}");
        }
    }
}

/// Encodes events exactly as the file sink would: one JSON line each.
fn to_jsonl(events: &[Event]) -> String {
    let sink = JsonlObserver::new(Vec::new());
    replay(events, &sink);
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

/// Renders a supervised ranking's full observer event log as JSONL.
fn traced_ranking_log(spec: &ScenarioSpec, parallelism: Parallelism) -> (Vec<u64>, String) {
    let series = spec.generate("poisson-events").unwrap();
    let families: Vec<&dyn ModelFamily> = vec![
        &resilience_core::bathtub::QuadraticFamily,
        &resilience_core::bathtub::CompetingRisksFamily,
    ];
    let config = FitConfig {
        parallelism,
        ..FitConfig::default()
    };
    let recorder = Arc::new(RecordingObserver::new());
    rank_models_supervised(
        &families,
        &series,
        &config,
        &ExecPolicy::default(),
        &Control::unbounded().observe(recorder.clone()),
    )
    .unwrap();
    (bits_of(series.values()), to_jsonl(&recorder.take()))
}

#[test]
fn poisson_scenario_serial_vs_fixed4_yields_identical_series_and_obs_logs() {
    // The acceptance criterion of the scenario-engine refactor: a
    // stochastic-event scenario consumed under Serial and Fixed(4)
    // parallelism produces byte-identical series AND byte-identical
    // observability event logs.
    let spec = poisson_scenario();
    let (serial_bits, serial_log) = traced_ranking_log(&spec, Parallelism::Serial);
    let (fixed4_bits, fixed4_log) = traced_ranking_log(&spec, Parallelism::Fixed(4));
    assert_eq!(serial_bits, fixed4_bits, "series bits differ");
    assert!(!serial_log.is_empty());
    assert_eq!(serial_log, fixed4_log, "obs JSONL event logs differ");
}

#[test]
fn canonical_set_covers_shapes_and_stories() {
    let set = catalog::canonical_set(42);
    let names: Vec<&str> = set.iter().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "shape-V",
        "shape-U",
        "shape-W",
        "shape-L",
        "shape-J",
        "shape-K",
        "step-outage",
        "double-dip",
        "slow-burn",
    ] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
}
