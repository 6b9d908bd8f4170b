//! Pins for sharded k-NN edge cases: device pools larger than the
//! index, `k == 0`, empty operands, and the `KnnResult` invariant that
//! `devices` always equals `per_device_seconds.len()`.

use gpu_sim::Device;
use neighbors::{KnnResult, MultiDevice, NearestNeighbors};
use semiring::Distance;
use sparse::CsrMatrix;

fn dataset(rows: usize) -> CsrMatrix<f64> {
    let mut data = vec![0.0; rows * 10];
    for r in 0..rows {
        for c in 0..10 {
            if (r + 2 * c) % 4 == 0 {
                data[r * 10 + c] = 1.0 + (r as f64) / 7.0 + (c as f64) / 31.0;
            }
        }
    }
    CsrMatrix::from_dense(rows, 10, &data)
}

fn assert_consistent<T>(r: &KnnResult<T>, queries: usize, ctx: &str) {
    assert_eq!(
        r.devices,
        r.per_device_seconds.len(),
        "{ctx}: devices field vs time vector"
    );
    assert_eq!(r.indices.len(), queries, "{ctx}: one result row per query");
    assert_eq!(r.distances.len(), queries, "{ctx}");
    let max = r.per_device_seconds.iter().cloned().fold(0.0, f64::max);
    assert_eq!(
        r.sim_seconds, max,
        "{ctx}: sim_seconds is the per-device max"
    );
}

#[test]
fn more_devices_than_index_rows() {
    let m = dataset(3);
    let multi = MultiDevice::replicate(&Device::volta(), 5);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let sharded = nn.kneighbors_sharded(&multi, &m, 2).expect("ok");
    assert_consistent(&sharded, 3, "5 devices x 3 rows");
    assert_eq!(sharded.devices, 5);
    // Only 3 single-row slabs exist; devices 3 and 4 stay idle.
    assert!(sharded.per_device_seconds[3] == 0.0 && sharded.per_device_seconds[4] == 0.0);
    let single = nn.kneighbors(&m, 2).expect("ok");
    assert_eq!(single.indices, sharded.indices);
}

#[test]
fn k_zero_yields_empty_rows_everywhere() {
    let m = dataset(3);
    let multi = MultiDevice::replicate(&Device::volta(), 5);
    for (label, r) in [
        (
            "plain",
            NearestNeighbors::new(Device::volta(), Distance::Euclidean)
                .fit(m.clone())
                .kneighbors(&m, 0),
        ),
        (
            "sharded",
            NearestNeighbors::new(Device::volta(), Distance::Euclidean)
                .fit(m.clone())
                .kneighbors_sharded(&multi, &m, 0),
        ),
    ] {
        let r = r.expect(label);
        assert_consistent(&r, 3, label);
        assert!(
            r.indices.iter().all(Vec::is_empty),
            "{label}: k=0 rows are empty"
        );
        assert!(r.distances.iter().all(Vec::is_empty), "{label}");
    }
}

#[test]
fn empty_index_yields_empty_rows() {
    let m = dataset(3);
    let empty = CsrMatrix::<f64>::zeros(0, 10);
    let multi = MultiDevice::replicate(&Device::volta(), 4);
    let r = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
        .fit(empty)
        .kneighbors_sharded(&multi, &m, 2)
        .expect("ok");
    assert_consistent(&r, 3, "empty index");
    assert_eq!(r.devices, 4);
    assert_eq!(r.batches, 0, "no slabs to execute");
    assert!(r.indices.iter().all(Vec::is_empty));
}

#[test]
fn empty_query_yields_no_rows() {
    let m = dataset(3);
    let q = CsrMatrix::<f64>::zeros(0, 10);
    let multi = MultiDevice::replicate(&Device::volta(), 4);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m);
    let r = nn.kneighbors_sharded(&multi, &q, 2).expect("ok");
    assert_consistent(&r, 0, "empty query sharded");
    let r = nn.kneighbors(&q, 2).expect("ok");
    assert_consistent(&r, 0, "empty query plain");
}

#[test]
fn prepared_shards_reuse_is_byte_identical_to_one_shot() {
    let m = dataset(9);
    for devices in [1usize, 3, 5] {
        let multi = MultiDevice::replicate(&Device::volta(), devices);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine).fit(m.clone());
        let oneshot = nn.kneighbors_sharded(&multi, &m, 4).expect("ok");
        let shards = nn.prepare_shards(&multi);
        nn.warm_shards(&shards).expect("warm");
        // Query the same prepared set twice: cached norms must not
        // change a single bit of the answers.
        for pass in 0..2 {
            let served = nn.kneighbors_prepared(&shards, &m, 4).expect("ok");
            assert_eq!(oneshot.indices, served.indices, "x{devices} pass {pass}");
            for (a, b) in oneshot.distances.iter().zip(&served.distances) {
                let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "x{devices} pass {pass}");
            }
        }
    }
}

#[test]
fn warming_shards_moves_norm_launches_out_of_the_query() {
    let m = dataset(9);
    let multi = MultiDevice::replicate(&Device::volta(), 3);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let shards = nn.prepare_shards(&multi);
    let (warm_s, warm_launches) = nn.warm_shards(&shards).expect("warm");
    assert!(
        warm_launches > 0 && warm_s > 0.0,
        "euclidean needs L2 norms"
    );
    let (again_s, again_launches) = nn.warm_shards(&shards).expect("warm twice");
    assert_eq!(
        (again_launches, again_s),
        (0, 0.0),
        "norms cached after first warm"
    );
    let cold = nn.kneighbors_sharded(&multi, &m, 3).expect("ok");
    let warm = nn.kneighbors_prepared(&shards, &m, 3).expect("ok");
    assert!(
        warm.sim_seconds < cold.sim_seconds,
        "warmed queries skip norm launches"
    );
    assert_eq!(cold.indices, warm.indices);
}
