//! Integration tests for deterministic fault injection and the launch
//! watchdog (ISSUE 3 tentpole, gpu-sim layer).

use gpu_sim::{lanes_from_fn, Device, FaultPlan, LaunchConfig, SimError, SmemHashTable};

/// A small copy kernel used as the common launch body.
fn copy_kernel(dev: &Device) -> Result<gpu_sim::LaunchStats, SimError> {
    let xs = dev.buffer_from_slice(&[1.0f32; 128]);
    let out = dev.buffer::<f32>(128);
    dev.try_launch("copy", LaunchConfig::new(1, 128, 0), |block| {
        block.run_warps(|w| {
            let idx = lanes_from_fn(|l| Some(w.global_thread_id(l)));
            let v = w.global_gather(&xs, &idx);
            w.global_scatter(&out, &idx, &v);
        });
    })
}

#[test]
fn unarmed_plan_is_byte_identical_to_no_plan() {
    let plain = Device::volta();
    let armed_off = Device::volta().with_fault_plan(FaultPlan::none());
    let a = copy_kernel(&plain).expect("plain launch");
    let b = copy_kernel(&armed_off).expect("FaultPlan::none launch");
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.cost.total_seconds, b.cost.total_seconds);
}

#[test]
fn transient_launch_failure_is_typed_and_deterministic() {
    let plan = FaultPlan::seeded(7).with_transient_launch_failures(1000);
    let dev = Device::volta().with_fault_plan(plan.clone());
    match copy_kernel(&dev) {
        Err(SimError::TransientFault { kernel, detail }) => {
            assert_eq!(kernel, "copy");
            assert!(detail.contains("transient launch failure"), "{detail}");
        }
        other => panic!("expected TransientFault, got {other:?}"),
    }
    // Same seed ⇒ the same launch ordinal rolls the same way on a fresh
    // device.
    let dev2 = Device::volta().with_fault_plan(plan);
    assert!(matches!(
        copy_kernel(&dev2),
        Err(SimError::TransientFault { .. })
    ));
}

#[test]
fn partial_transient_rate_eventually_succeeds_on_retry() {
    let dev =
        Device::volta().with_fault_plan(FaultPlan::seeded(3).with_transient_launch_failures(500));
    let mut outcomes = Vec::new();
    for _ in 0..16 {
        outcomes.push(copy_kernel(&dev).is_ok());
    }
    assert!(outcomes.iter().any(|&ok| ok), "some launch should succeed");
    assert!(outcomes.iter().any(|&ok| !ok), "some launch should fail");
    // Determinism: a fresh device with the same seed replays the exact
    // outcome sequence.
    let dev2 =
        Device::volta().with_fault_plan(FaultPlan::seeded(3).with_transient_launch_failures(500));
    let replay: Vec<bool> = (0..16).map(|_| copy_kernel(&dev2).is_ok()).collect();
    assert_eq!(outcomes, replay);
}

#[test]
fn injected_smem_alloc_failure_is_capacity_overflow() {
    let dev = Device::volta().with_fault_plan(FaultPlan::seeded(11).with_smem_alloc_failures(1000));
    let err = dev
        .try_launch("alloc", LaunchConfig::new(1, 32, 4096), |block| {
            let _ = block.alloc_shared::<f32>(256);
            block.run_warps(|w| w.issue(1));
        })
        .expect_err("injected smem failure");
    match err {
        SimError::CapacityOverflow {
            kernel, resource, ..
        } => {
            assert_eq!(kernel, "alloc");
            assert_eq!(resource, "smem-allocator");
        }
        other => panic!("expected CapacityOverflow, got {other:?}"),
    }
}

#[test]
fn injected_hash_overflow_is_capacity_overflow() {
    let dev = Device::volta().with_fault_plan(FaultPlan::seeded(5).with_hash_overflows(1000));
    let err = dev
        .try_launch("hash", LaunchConfig::new(1, 32, 48 * 1024), |block| {
            let table = SmemHashTable::<f32>::new(block, 128);
            let t = table.clone();
            block.run_warps(|w| {
                let keys = lanes_from_fn(|l| Some(l as u32));
                let vals = lanes_from_fn(|l| l as f32);
                t.insert_warp(w, &keys, &vals);
            });
        })
        .expect_err("injected hash overflow");
    match err {
        SimError::CapacityOverflow {
            kernel,
            resource,
            detail,
        } => {
            assert_eq!(kernel, "hash");
            assert_eq!(resource, "smem-hash-table");
            assert!(detail.contains("injected insert overflow"), "{detail}");
        }
        other => panic!("expected CapacityOverflow, got {other:?}"),
    }
}

#[test]
fn real_hash_overflow_is_typed_under_try_launch() {
    let dev = Device::volta();
    let err = dev
        .try_launch("hash", LaunchConfig::new(1, 32, 48 * 1024), |block| {
            let table = SmemHashTable::<f32>::new(block, 32);
            let t = table.clone();
            block.run_warps(|w| {
                for round in 0..2 {
                    let keys = lanes_from_fn(|l| Some((round * 32 + l) as u32));
                    let vals = lanes_from_fn(|_| 0.0f32);
                    t.insert_warp(w, &keys, &vals);
                }
            });
        })
        .expect_err("overfull table");
    match err {
        SimError::CapacityOverflow { detail, .. } => {
            assert!(
                detail.contains("shared-memory hash table is full (capacity 32)"),
                "{detail}"
            );
        }
        other => panic!("expected CapacityOverflow, got {other:?}"),
    }
}

#[test]
fn bit_flip_on_labeled_buffer_reports_ecc_event() {
    let dev =
        Device::volta().with_fault_plan(FaultPlan::seeded(21).with_bit_flips("csr.values", 1000));
    let xs = dev
        .buffer_from_slice(&[1.0f32; 64])
        .with_label("csr.values");
    let out = dev.buffer::<f32>(64);
    let err = dev
        .try_launch("flip", LaunchConfig::new(1, 64, 0), |block| {
            block.run_warps(|w| {
                let idx = lanes_from_fn(|l| Some(w.global_thread_id(l)));
                let v = w.global_gather(&xs, &idx);
                w.global_scatter(&out, &idx, &v);
            });
        })
        .expect_err("flip on labeled buffer");
    match err {
        SimError::TransientFault { detail, .. } => {
            assert!(detail.contains("single-bit upset"), "{detail}");
            assert!(detail.contains("csr.values"), "{detail}");
        }
        other => panic!("expected TransientFault, got {other:?}"),
    }
    // ECC-corrected model: storage is never mutated, so the data is
    // intact for the retry.
    assert_eq!(xs.to_vec(), vec![1.0f32; 64]);
}

#[test]
fn bit_flip_ignores_unlabeled_and_differently_labeled_buffers() {
    let dev =
        Device::volta().with_fault_plan(FaultPlan::seeded(21).with_bit_flips("csr.values", 1000));
    let xs = dev
        .buffer_from_slice(&[1.0f32; 64])
        .with_label("coo.values");
    let out = dev.buffer::<f32>(64);
    dev.try_launch("flip", LaunchConfig::new(1, 64, 0), |block| {
        block.run_warps(|w| {
            let idx = lanes_from_fn(|l| Some(w.global_thread_id(l)));
            let v = w.global_gather(&xs, &idx);
            w.global_scatter(&out, &idx, &v);
        });
    })
    .expect("no matching buffer, no fault");
}

#[test]
fn watchdog_converts_livelock_into_typed_timeout() {
    let dev = Device::volta().with_watchdog(10_000);
    let err = dev
        .try_launch("livelock", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| loop {
                w.issue(1);
            });
        })
        .expect_err("livelocked kernel");
    match err {
        SimError::WatchdogTimeout { kernel, budget } => {
            assert_eq!(kernel, "livelock");
            assert_eq!(budget, 10_000);
        }
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
}

#[test]
fn watchdog_passes_well_behaved_launches() {
    let dev = Device::volta().with_watchdog(1_000_000);
    copy_kernel(&dev).expect("well within budget");
}

#[test]
fn device_wide_watchdog_applies_when_config_has_none() {
    let dev = Device::volta().with_watchdog(100);
    let err = dev
        .try_launch("livelock", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| loop {
                w.issue(1);
            });
        })
        .expect_err("device-wide watchdog");
    assert!(matches!(err, SimError::WatchdogTimeout { budget: 100, .. }));
}

#[test]
fn watchdog_budget_derives_from_cost_model() {
    let dev = Device::volta();
    let config = LaunchConfig::new(8, 128, 0);
    let tight = dev.watchdog_budget(&config, 1e-6);
    let loose = dev.watchdog_budget(&config, 1e-3);
    assert!(tight >= 1);
    assert!(loose > tight, "{loose} vs {tight}");
}

#[test]
fn livelocked_hash_probe_terminates_via_watchdog() {
    // A full table probed with an absent key would historically re-probe
    // forever in a real livelock; the watchdog converts any such runaway
    // loop into a typed timeout. (The table itself also bounds probes,
    // so this drives the loop directly.)
    let dev = Device::volta();
    let budget = dev
        .watchdog_budget(&LaunchConfig::new(1, 32, 48 * 1024), 1e-7)
        .max(64);
    let err = dev
        .with_watchdog(budget)
        .try_launch(
            "probe-livelock",
            LaunchConfig::new(1, 32, 48 * 1024),
            |block| {
                let table = SmemHashTable::<f32>::new(block, 64);
                let t = table.clone();
                block.run_warps(|w| {
                    let keys = lanes_from_fn(|l| Some(l as u32));
                    let vals = lanes_from_fn(|l| l as f32);
                    t.insert_warp(w, &keys, &vals);
                    // Hammer lookups until the budget trips.
                    loop {
                        let probe = lanes_from_fn(|l| Some((1000 + l) as u32));
                        let _ = t.lookup_warp(w, &probe);
                    }
                });
            },
        )
        .expect_err("runaway probe loop");
    assert!(matches!(err, SimError::WatchdogTimeout { .. }));
}

#[test]
fn same_seed_same_faults_across_fault_classes() {
    let make = || {
        Device::volta().with_fault_plan(
            FaultPlan::seeded(99)
                .with_transient_launch_failures(200)
                .with_smem_alloc_failures(200)
                .with_hash_overflows(200),
        )
    };
    let run = |dev: &Device| -> Vec<String> {
        (0..12)
            .map(|_| {
                dev.try_launch("mix", LaunchConfig::new(1, 32, 48 * 1024), |block| {
                    let table = SmemHashTable::<f32>::new(block, 64);
                    let t = table.clone();
                    block.run_warps(|w| {
                        let keys = lanes_from_fn(|l| Some(l as u32));
                        let vals = lanes_from_fn(|l| l as f32);
                        t.insert_warp(w, &keys, &vals);
                    });
                })
                .map(|_| "ok".to_string())
                .unwrap_or_else(|e| e.to_string())
            })
            .collect()
    };
    let a = run(&make());
    let b = run(&make());
    assert_eq!(a, b);
    assert!(a.iter().any(|s| s != "ok"), "faults should fire at 200‰");
    assert!(a.iter().any(|s| s == "ok"), "some launches should pass");
}
