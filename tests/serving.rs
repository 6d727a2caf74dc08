//! Wire-protocol robustness and admission behavior of the serving front
//! end (`deeplens-serve`): malformed and truncated frames, oversized
//! payload rejection, mid-request disconnects and overload shedding; and
//! served answers equal to the oracle of the shared harness
//! (`harness/mod.rs`), whose whole sweep `tests/oracle.rs` runs.

mod harness;

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use deeplens::core::batch::{BatchQuery, BatchResult};
use deeplens::core::prelude::*;
use deeplens::serve::{
    protocol, serve, AdmissionConfig, Client, ClientError, ServerConfig, ServerHandle, WireError,
};
use harness::{feature_rows, sweep};

/// A served catalog with the standard test corpus and a generous admission
/// budget (nothing sheds unless a test says so).
fn seeded_server() -> (Arc<SharedCatalog>, ServerHandle) {
    let catalog = Arc::new(SharedCatalog::new());
    catalog.materialize("small", feature_rows(60, 6, 1));
    catalog.materialize("large", feature_rows(220, 6, 2));
    catalog.build_ball_index("large", "by_feat", 1).unwrap();
    let server = serve(
        catalog.clone(),
        ServerConfig {
            admission: AdmissionConfig {
                max_inflight_cost_us: 1e12,
                max_queue_depth: 64,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (catalog, server)
}

fn test_queries() -> Vec<BatchQuery> {
    vec![
        BatchQuery::SimilarityJoin {
            left: "small".into(),
            right: "large".into(),
            tau: 2.0,
            predicate: None,
        },
        BatchQuery::Dedup {
            collection: "small".into(),
            tau: 3.0,
        },
        BatchQuery::IndexProbe {
            collection: "large".into(),
            index: "by_feat".into(),
            probe: vec![5.0; 6],
            tau: 2.0,
        },
    ]
}

#[test]
fn remote_writes_publish_through_the_shared_catalog() {
    let (catalog, server) = seeded_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .materialize(
            "uploaded",
            vec![vec![1.0, 2.0], vec![1.1, 2.1], vec![9.0, 9.0]],
        )
        .unwrap();
    client.build_index("uploaded", "by_feat").unwrap();
    // Visible to in-process readers immediately.
    assert_eq!(catalog.snapshot("uploaded").unwrap().len(), 3);
    // And queryable over the wire.
    let results = client
        .batch(vec![BatchQuery::IndexProbe {
            collection: "uploaded".into(),
            index: "by_feat".into(),
            probe: vec![1.0, 2.0],
            tau: 0.5,
        }])
        .unwrap();
    assert_eq!(results[0], BatchResult::Hits(vec![0, 1]));
}

#[test]
fn delta_merges_count_only_the_served_catalog() {
    let (merged, merging_server) = seeded_server();
    let (untouched, other_server) = seeded_server();
    let mut merging = Client::connect(merging_server.local_addr()).unwrap();
    let mut other = Client::connect(other_server.local_addr()).unwrap();
    // Every row of `large` changes: the delta crosses the merge threshold
    // and its Ball index is rebuilt.
    let rows: Vec<Vec<f32>> = feature_rows(220, 6, 9)
        .iter()
        .map(|p| p.data.features().unwrap().to_vec())
        .collect();
    merging.materialize("large", rows).unwrap();
    assert_eq!(merging.stats().unwrap().delta_merges, 1);
    assert_eq!(merged.counters().index_delta_merges, 1);
    assert_eq!(merged.counters().index_deltas_maintained, 0);
    assert_eq!(other.stats().unwrap().delta_merges, 0);
    assert_eq!(
        untouched.counters(),
        CounterSnapshot::default(),
        "the other catalog counts nothing"
    );
}

#[test]
fn query_errors_answer_without_closing_the_connection() {
    let (_catalog, server) = seeded_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client
        .batch(vec![BatchQuery::Dedup {
            collection: "no_such_collection".into(),
            tau: 1.0,
        }])
        .unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "got {err:?}");
    // The connection survives an execution error.
    client.ping().unwrap();
    assert!(!client.batch(test_queries()).unwrap().is_empty());
}

#[test]
fn mismatched_dimensions_answer_errors_on_a_connection_that_keeps_serving() {
    let (_catalog, server) = seeded_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.materialize("a", vec![vec![1.0; 8]; 10]).unwrap();
    client.materialize("b", vec![vec![1.0; 4]; 20]).unwrap();
    client.build_index("a", "by_feat").unwrap();
    let mut mixed = vec![vec![1.0; 4]; 5];
    mixed.extend(vec![vec![1.0; 8]; 5]);
    client.materialize("mixed", mixed).unwrap();

    let mismatch = |err: ClientError| match err {
        ClientError::Server(msg) => assert!(msg.contains("schema mismatch"), "{msg}"),
        other => panic!("expected an Error reply, got {other:?}"),
    };
    mismatch(
        client
            .batch(vec![BatchQuery::SimilarityJoin {
                left: "a".into(),
                right: "b".into(),
                tau: 1.0,
                predicate: None,
            }])
            .unwrap_err(),
    );
    client.ping().unwrap();
    mismatch(
        client
            .batch(vec![BatchQuery::IndexProbe {
                collection: "a".into(),
                index: "by_feat".into(),
                probe: vec![1.0; 3],
                tau: 1.0,
            }])
            .unwrap_err(),
    );
    client.ping().unwrap();
    mismatch(client.build_index("mixed", "by_feat").unwrap_err());
    client.ping().unwrap();
}

#[test]
fn malformed_frames_are_answered_and_truncated_frames_close_cleanly() {
    let (_catalog, server) = seeded_server();

    // A well-framed payload that is not a valid message: the server answers
    // with an Error reply and keeps the connection serving.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    protocol::write_frame(&mut raw, &[0x77, 0x01, 0x02]).unwrap();
    let reply = protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap();
    assert!(matches!(
        protocol::Response::decode(&reply).unwrap(),
        protocol::Response::Error(_)
    ));
    protocol::write_frame(&mut raw, &protocol::Request::Ping.encode().unwrap()).unwrap();
    let reply = protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap();
    assert!(matches!(
        protocol::Response::decode(&reply).unwrap(),
        protocol::Response::Pong
    ));

    // A frame that announces more bytes than it delivers, then disconnects:
    // the server must drop the connection without wedging the accept loop.
    let mut truncated = TcpStream::connect(server.local_addr()).unwrap();
    truncated.write_all(&100u32.to_le_bytes()).unwrap();
    truncated.write_all(&[0x01, 0x02, 0x03]).unwrap();
    drop(truncated);

    // New connections still serve.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
}

#[test]
fn oversized_frames_are_rejected() {
    let catalog = Arc::new(SharedCatalog::new());
    let mut server = serve(
        catalog,
        ServerConfig {
            max_frame_bytes: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a payload far past the cap without sending it: the reply
    // must arrive without the server ever reading (or allocating) the body.
    raw.write_all(&(10u32 << 20).to_le_bytes()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap();
    match protocol::Response::decode(&reply).unwrap() {
        protocol::Response::Error(msg) => {
            assert!(msg.contains("exceeds"), "unexpected message: {msg}")
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The connection is closed after the rejection (the stream cannot be
    // resynced), but the server keeps accepting.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    server.stop();
}

/// A reply that encodes past the frame cap is answered with an Error naming
/// both sizes instead of being written, and the connection keeps serving. A
/// client whose cap is below the server's rejects such a reply and shuts its
/// stream, so its next call fails cleanly instead of decoding the unread
/// payload as frame lengths.
#[test]
fn oversized_replies_answer_errors_on_a_connection_that_keeps_serving() {
    let (catalog, server) = seeded_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // 600 identical rows self-join into 360 000 pairs: ≈2.9 MB encoded,
    // past the 1 MiB default cap on both ends.
    client
        .materialize("same", vec![vec![1.0, 2.0]; 600])
        .unwrap();
    let self_join = || {
        vec![BatchQuery::SimilarityJoin {
            left: "same".into(),
            right: "same".into(),
            tau: 0.5,
            predicate: None,
        }]
    };
    match client.batch(self_join()).unwrap_err() {
        ClientError::Server(msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected an Error reply, got {other:?}"),
    }
    client.ping().unwrap();

    let roomy = serve(
        catalog,
        ServerConfig {
            max_frame_bytes: 4 << 20,
            admission: AdmissionConfig {
                max_inflight_cost_us: 1e12,
                max_queue_depth: 64,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(roomy.local_addr()).unwrap();
    match client.batch(self_join()).unwrap_err() {
        ClientError::Wire(WireError::FrameTooLarge { .. }) => {}
        other => panic!("expected the client to reject the frame, got {other:?}"),
    }
    match client.ping().unwrap_err() {
        ClientError::Wire(WireError::Io(_)) => {}
        other => panic!("expected a closed stream, got {other:?}"),
    }
}

#[test]
fn mid_request_disconnect_leaves_other_connections_serving() {
    let (_catalog, server) = seeded_server();
    let mut victim = Client::connect(server.local_addr()).unwrap();
    victim.ping().unwrap();

    // A second connection dies halfway through a frame.
    let mut dying = TcpStream::connect(server.local_addr()).unwrap();
    let payload = protocol::Request::Batch(test_queries()).encode().unwrap();
    dying
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    dying.write_all(&payload[..payload.len() / 2]).unwrap();
    drop(dying);

    // The surviving connection keeps answering queries.
    let results = victim.batch(test_queries()).unwrap();
    assert_eq!(results.len(), 3);
}

#[test]
fn each_connection_is_a_catalog_session() {
    let (catalog, mut server) = seeded_server();
    let baseline = catalog.active_sessions();
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    // Ping round-trips guarantee both connection sessions are attached.
    let stats = a.stats().unwrap();
    assert_eq!(stats.active_sessions as usize, baseline + 2);
    assert_eq!(stats.collections, 2);
    drop(a);
    drop(b);
    // stop() joins every connection thread, detaching their sessions.
    server.stop();
    assert_eq!(catalog.active_sessions(), baseline);
}

#[test]
fn sheds_start_only_past_the_queue_depth_and_report_overloaded() {
    const DEPTH: usize = 2;
    let catalog = Arc::new(SharedCatalog::new());
    catalog.materialize("small", feature_rows(60, 6, 1));
    catalog.materialize("large", feature_rows(220, 6, 2));
    // A tiny budget forces every join to queue behind the first; depth 2
    // bounds the queue.
    let server = serve(
        catalog.clone(),
        ServerConfig {
            admission: AdmissionConfig {
                max_inflight_cost_us: 1.5,
                max_queue_depth: DEPTH,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let join = || {
        vec![BatchQuery::SimilarityJoin {
            left: "small".into(),
            right: "large".into(),
            tau: 2.0,
            predicate: None,
        }]
    };
    // Fire a storm of concurrent requests at a budget that admits one at a
    // time: with 1 running + DEPTH queued, the rest must shed.
    const CLIENTS: usize = 8;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let join = join();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                match c.batch(join) {
                    Ok(results) => {
                        assert_eq!(results.len(), 1);
                        (1usize, 0usize)
                    }
                    Err(ClientError::Overloaded) => (0, 1),
                    Err(e) => panic!("unexpected failure: {e:?}"),
                }
            })
        })
        .collect();
    let (mut ok, mut shed) = (0usize, 0usize);
    for w in workers {
        let (o, s) = w.join().unwrap();
        ok += o;
        shed += s;
    }
    assert_eq!(ok + shed, CLIENTS);
    // Admission capacity during the storm is 1 running + DEPTH queued:
    // whatever the interleaving, completions below that bound prove sheds
    // started too early, and the server's own counters must agree with the
    // clients'.
    assert!(
        ok > DEPTH,
        "sheds began below the configured queue depth: only {ok} admitted"
    );
    assert_eq!(server.admitted(), ok as u64);
    assert_eq!(server.shed(), shed as u64);

    // Once drained, the same request admits again — overload is a state,
    // not a death sentence.
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.batch(join()).unwrap().len(), 1);

    // Admitted results under pressure are still byte-identical to direct
    // execution.
    let session = Session::ephemeral_attached(catalog).unwrap();
    let mut batch = session.batch();
    batch.push(join().remove(0));
    let direct = batch.run().unwrap();
    assert_eq!(c.batch(join()).unwrap(), direct);
}

#[test]
fn generous_budget_sheds_nothing() {
    let (_catalog, server) = seeded_server();
    let addr = server.local_addr();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    c.batch(test_queries()).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(server.shed(), 0, "a generous budget must not shed");
    assert_eq!(server.admitted(), 12);
}

/// Served batches from two concurrent clients, rejected thresholds on a
/// connection that keeps serving, and every in-process plan, on every route.
#[test]
fn served_results_are_byte_identical_to_direct_execution() {
    sweep(0x5e7e, |_| true);
}
