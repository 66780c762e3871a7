//! Static peer lists and the peer calls behind cross-host recovery.
//!
//! Multi-host mode (`fastofd serve --peers host:port,...`) gives every
//! process a fixed list of sibling workers. Three subsystems use it:
//!
//! * the router fans catalog `PUT`s out to a write quorum of peers,
//! * [`Catalog`](crate::catalog::Catalog) resolves a locally-missing
//!   dataset version by fetching its snapshot from a peer, and
//! * job / stream recovery ships a dead owner's newest checkpoint across
//!   filesystems via `GET /v1/{jobs,streams}/{fingerprint}/snapshot`.
//!
//! Every call goes through the crate's one client,
//! [`http::exchange`](crate::http::exchange), and is bounded:
//! configurable connect/read deadlines ([`PeerTimeouts`]), a reply
//! accepted only whole (a torn one is a transport error, never a parsed
//! success), and a shared [`RetryPolicy`](crate::retry::RetryPolicy) in
//! the fetch path.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use ofd_core::SnapshotStore;
use serde_json::Value;

use crate::http::exchange;
use crate::retry::RetryPolicy;

/// Header stamped on every request one fleet process sends another
/// ([`peer_json`]). A catalog describe carrying it is answered from the
/// receiver's own versions only: were it to ask its peers in turn, two
/// workers listing each other in `--peers` would bounce one unknown name
/// back and forth until connections ran out.
pub(crate) const PEER_HEADER: &str = "x-ofd-peer";

/// Connect/read deadlines for peer-to-peer transfer requests.
///
/// The defaults are the historical constants (1 s connect, 10 s read);
/// chaos runs tighten both via `--peer-timeout-ms` so a blackholed peer
/// costs milliseconds instead of stalling a recovery path for 10 s.
#[derive(Debug, Clone, Copy)]
pub struct PeerTimeouts {
    /// Connect timeout.
    pub connect: Duration,
    /// Read/write deadline for the whole exchange.
    pub read: Duration,
}

impl Default for PeerTimeouts {
    fn default() -> PeerTimeouts {
        PeerTimeouts {
            connect: Duration::from_millis(1_000),
            read: Duration::from_millis(10_000),
        }
    }
}

impl PeerTimeouts {
    /// Timeouts derived from a single `peer_timeout_ms` knob: the read
    /// deadline is the knob, the connect timeout is clamped to at most
    /// 1 s (connecting should always be fast; only transfers are slow).
    pub fn from_ms(peer_timeout_ms: u64) -> PeerTimeouts {
        let read = Duration::from_millis(peer_timeout_ms.max(1));
        PeerTimeouts {
            connect: read.min(Duration::from_millis(1_000)),
            read,
        }
    }
}

/// Parse a comma-separated `host:port,...` peer list into socket
/// addresses. Entries are trimmed; empty entries are rejected so a typo
/// like `a:1,,b:2` fails loudly instead of silently shrinking the quorum.
pub fn parse_peer_list(spec: &str) -> Result<Vec<SocketAddr>, String> {
    let mut peers = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty entry in peer list {spec:?}"));
        }
        let addr = entry
            .to_socket_addrs()
            .map_err(|e| format!("peer {entry:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("peer {entry:?}: no addresses"))?;
        peers.push(addr);
    }
    Ok(peers)
}

/// One peer call through [`exchange`]: stamped with [`PEER_HEADER`], an
/// optional JSON body, and the reply body decoded as JSON — `Null` when
/// it is not JSON, so callers treat "peer answered garbage" the same as
/// "peer answered nothing". A torn reply is a transport error.
pub(crate) fn peer_json(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Value>,
    timeouts: &PeerTimeouts,
) -> io::Result<(u16, Value)> {
    let payload = body.map(Value::to_string).unwrap_or_default();
    let reply = exchange(addr, method, path, &[(PEER_HEADER, "1")], payload.as_bytes(), timeouts)?;
    Ok((reply.status, reply.json()))
}

/// Fetch a snapshot bundle (`{"files": [{name, seq, body}, ...]}`) from
/// the first peer that answers 200 for `path`, and install every file
/// into `store` via [`SnapshotStore::save`]. Each peer gets a small
/// retry budget (transient resets and torn replies are exactly what the
/// chaos proxy injects); connection-refused moves on without sleeping.
/// Returns the number of snapshot files installed (0 when no peer had
/// anything to ship — callers then fall back to re-execution from
/// inputs).
pub(crate) fn fetch_and_install(
    peers: &[SocketAddr],
    path: &str,
    store: &SnapshotStore,
    timeouts: &PeerTimeouts,
) -> usize {
    let policy = RetryPolicy::new(2, 50);
    for &peer in peers {
        let Ok((200, bundle)) = policy.run(
            |_| peer_json(peer, "GET", path, None, timeouts),
            |e| e.kind() == io::ErrorKind::ConnectionRefused,
        ) else {
            continue;
        };
        let Some(files) = bundle.get("files").and_then(Value::as_array) else {
            continue;
        };
        let mut installed = 0usize;
        for file in files {
            let (Some(name), Some(seq), Some(body)) = (
                file.get("name").and_then(Value::as_str),
                file.get("seq").and_then(Value::as_u64),
                file.get("body"),
            ) else {
                continue;
            };
            // The name comes from the peer; `save` refuses any that is
            // not a plain stream name, so no file lands outside `store`.
            if store.save(name, seq, body).is_ok() {
                installed += 1;
            }
        }
        if installed > 0 {
            return installed;
        }
    }
    0
}

/// Build the snapshot-bundle JSON a transfer endpoint serves: the newest
/// snapshot per stream name found in `store`. Returns `None` when the
/// store holds nothing to ship.
pub(crate) fn snapshot_bundle(store: &SnapshotStore) -> Option<Value> {
    let names = store.streams().ok()?;
    let mut files = Vec::new();
    for name in names {
        if let Ok(Some(loaded)) = store.load_latest(&name) {
            files.push(serde_json::json!({
                "name": name,
                "seq": loaded.seq,
                "body": loaded.body,
            }));
        }
    }
    if files.is_empty() {
        None
    } else {
        Some(serde_json::json!({ "files": files }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn peer_lists_parse_and_reject_empty_entries() {
        let peers = parse_peer_list("127.0.0.1:7001, 127.0.0.1:7002").expect("two peers");
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[0].port(), 7001);
        assert_eq!(peers[1].port(), 7002);
        assert!(parse_peer_list("127.0.0.1:7001,,127.0.0.1:7002").is_err());
        assert!(parse_peer_list("").is_err());
        assert!(parse_peer_list("not-an-addr").is_err());
    }

    #[test]
    fn snapshot_bundles_round_trip_through_fetch_and_install() {
        let src_dir = std::env::temp_dir().join(format!("ofd-peers-src-{}", std::process::id()));
        let dst_dir = std::env::temp_dir().join(format!("ofd-peers-dst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
        let src = SnapshotStore::new(&src_dir);
        src.save("session", 3, &serde_json::json!({"edits": [1, 2, 3]}))
            .expect("seed snapshot");
        let bundle = snapshot_bundle(&src).expect("bundle with one file");

        // Serve the bundle from a throwaway listener, then install it
        // into a second store through the real client path.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let body = bundle.to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            let reply = format!(
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
                body.len(),
                body
            );
            conn.write_all(reply.as_bytes()).expect("reply");
        });

        let dst = SnapshotStore::new(&dst_dir);
        let installed =
            fetch_and_install(&[addr], "/v1/streams/00/snapshot", &dst, &PeerTimeouts::default());
        server.join().expect("server thread");
        assert_eq!(installed, 1);
        let loaded = dst.load_latest("session").expect("load").expect("present");
        assert_eq!(loaded.seq, 3);
        assert_eq!(
            loaded.body.get("edits"),
            Some(&serde_json::json!([1, 2, 3]))
        );

        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
    }

    #[test]
    fn shipped_names_cannot_leave_the_store() {
        let root = std::env::temp_dir().join(format!("ofd-peers-names-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dst_dir = root.join("job-0123456789abcdef");
        // The directories a traversal would aim at exist, as another
        // job's would.
        let sibling = root.join("job-fedcba9876543210");
        let absolute = root.join("planted");
        std::fs::create_dir_all(&sibling).expect("sibling job dir");
        std::fs::create_dir_all(&absolute).expect("absolute target dir");
        let empty = |dir: &std::path::Path| std::fs::read_dir(dir).expect("dir").next().is_none();
        let files: Vec<Value> = [
            "../job-fedcba9876543210/discovery".to_owned(),
            absolute.join("discovery").display().to_string(),
        ]
        .iter()
        .map(|name| serde_json::json!({"name": name, "seq": 7, "body": {"level": 1}}))
        .collect();
        let body = serde_json::json!({ "files": files }).to_string();

        // A scripted peer ships the bundle through the real client path.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            let reply = format!(
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
            conn.write_all(reply.as_bytes()).expect("reply");
        });
        let dst = SnapshotStore::new(&dst_dir);
        let installed = fetch_and_install(
            &[addr],
            "/v1/jobs/00/snapshot",
            &dst,
            &PeerTimeouts::default(),
        );
        server.join().expect("server thread");
        assert_eq!(installed, 0, "no shipped file had a plain stream name");
        assert!(empty(&sibling), "nothing landed in the sibling job");
        assert!(empty(&absolute), "nothing landed at the absolute path");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn peer_timeouts_derive_from_a_single_knob() {
        let t = PeerTimeouts::from_ms(250);
        assert_eq!(t.read, Duration::from_millis(250));
        assert_eq!(t.connect, Duration::from_millis(250), "connect clamps to read when tighter");
        let t = PeerTimeouts::from_ms(30_000);
        assert_eq!(t.read, Duration::from_millis(30_000));
        assert_eq!(t.connect, Duration::from_millis(1_000), "connect caps at 1 s");
    }
}
