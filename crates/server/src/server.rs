//! The serving core: a TCP listener that authenticates tenants and drives
//! one engine [`Session`] per connection on the shared [`Database`].
//!
//! Threading model: connections are I/O-bound waiters, so they get plain
//! OS threads (the engine's worker pool is for CPU-bound execution phases
//! and must never block on a socket). Query execution inside a connection
//! still runs on the shared pool via the session, so N clients share the
//! same workers, caches and eviction budget — which is the whole point:
//! one tenant's published hash tables are reusable by its later queries
//! while budget floors keep a noisy neighbour from evicting everyone
//! else's working set.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hashstash::{Database, Session, TenantId};
use hashstash_sql::SchemaProvider;
use hashstash_storage::catalog::Catalog;
use hashstash_types::DataType;

use crate::protocol::{read_text, write_frame};

/// One authenticated principal: a name the wire protocol sees, a shared
/// secret, and an anti-starvation floor for the shared cache budget.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Wire name (`HELLO <name> <token>`).
    pub name: String,
    /// Shared secret; compared verbatim.
    pub token: String,
    /// Bytes of cached state the eviction loop will not take from this
    /// tenant while others still hold evictable tables (0 = no floor).
    pub floor_bytes: usize,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests, benches).
    pub addr: String,
    /// The tenant table. Connections must HELLO as one of these.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            tenants: Vec::new(),
        }
    }
}

/// Adapter exposing the engine catalog to the SQL front end's
/// [`SchemaProvider`] — the one place the parser meets storage.
pub struct CatalogSchema<'a>(pub &'a Catalog);

impl SchemaProvider for CatalogSchema<'_> {
    fn has_table(&self, table: &str) -> bool {
        self.0.get(table).is_ok()
    }
    fn column_type(&self, table: &str, column: &str) -> Option<DataType> {
        let t = self.0.get(table).ok()?;
        let f = t.schema().field(column).ok()?;
        Some(f.dtype)
    }
}

struct Registry {
    /// name -> (token, tenant id)
    tenants: HashMap<String, (String, TenantId)>,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop and joins every connection thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Register the configured tenants on `db`, bind, and start serving.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> io::Result<Server> {
        let mut tenants = HashMap::new();
        for t in &cfg.tenants {
            let id = db.register_tenant(&t.name);
            db.set_tenant_floor(id, t.floor_bytes);
            tenants.insert(t.name.clone(), (t.token.clone(), id));
        }
        let registry = Arc::new(Registry { tenants });
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let stop = Arc::clone(&stop);
            // Connection threads detach; the OS reclaims them when the
            // client disconnects or shutdown closes the listener's side.
            // tidy:allow(no-raw-spawn): serving threads block on sockets; the
            // engine worker pool is CPU-bound and must never park on I/O.
            #[allow(clippy::disallowed_methods)]
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let db = Arc::clone(&db);
                    let registry = Arc::clone(&registry);
                    // tidy:allow(no-raw-spawn): one I/O-bound thread per client
                    // connection; execution inside still uses the shared pool.
                    #[allow(clippy::disallowed_methods)]
                    std::thread::spawn(move || {
                        let peer = stream
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "<unknown>".to_string());
                        if let Err(e) = serve_connection(&db, &registry, stream) {
                            // I/O errors on a single connection are routine
                            // (client vanished); log and keep serving.
                            eprintln!("hs-server: connection {peer}: {e}");
                        }
                    });
                }
            })
        };
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection state machine: HELLO first, then verbs until QUIT/EOF.
fn serve_connection(db: &Arc<Database>, registry: &Registry, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // --- authentication handshake --------------------------------------
    let mut session: Option<(Session, TenantId)> = None;
    while session.is_none() {
        let line = match read_text(&mut reader)? {
            Some(l) => l,
            None => return Ok(()), // client left before HELLO
        };
        let mut words = line.split_whitespace();
        match words.next() {
            Some(v) if v.eq_ignore_ascii_case("HELLO") => {
                let (name, token) = match (words.next(), words.next()) {
                    (Some(n), Some(t)) => (n, t),
                    _ => {
                        write_frame(&mut writer, b"ERR usage: HELLO <tenant> <token>")?;
                        continue;
                    }
                };
                match registry.tenants.get(name) {
                    Some((expect, id)) if expect == token => {
                        write_frame(&mut writer, format!("OK tenant={name}").as_bytes())?;
                        session = Some((db.session_as(*id), *id));
                    }
                    _ => {
                        // One message for bad name and bad token: don't
                        // leak which tenants exist.
                        write_frame(&mut writer, b"ERR authentication failed")?;
                    }
                }
            }
            Some(v) if v.eq_ignore_ascii_case("QUIT") => {
                write_frame(&mut writer, b"OK bye")?;
                return Ok(());
            }
            Some(v) if v.eq_ignore_ascii_case("PING") => {
                write_frame(&mut writer, b"OK pong")?;
            }
            _ => write_frame(
                &mut writer,
                b"ERR authenticate first: HELLO <tenant> <token>",
            )?,
        }
    }
    let (mut session, tenant) = match session {
        Some(s) => s,
        None => return Ok(()), // unreachable; loop exits only when set
    };

    // --- verb loop ------------------------------------------------------
    let mut next_qid: u32 = 1;
    while let Some(line) = read_text(&mut reader)? {
        let verb = line.split_whitespace().next().unwrap_or("");
        if verb.eq_ignore_ascii_case("QUERY") {
            let sql = line.get(verb.len()..).map(str::trim_start).unwrap_or("");
            let reply = run_query(db, &mut session, next_qid, sql);
            next_qid = next_qid.wrapping_add(1).max(1);
            write_frame(&mut writer, &reply)?;
        } else if verb.eq_ignore_ascii_case("STATS") {
            write_frame(&mut writer, stats_reply(db, registry, tenant).as_bytes())?;
        } else if verb.eq_ignore_ascii_case("PING") {
            write_frame(&mut writer, b"OK pong")?;
        } else if verb.eq_ignore_ascii_case("QUIT") {
            write_frame(&mut writer, b"OK bye")?;
            return Ok(());
        } else if verb.eq_ignore_ascii_case("HELLO") {
            write_frame(&mut writer, b"ERR already authenticated")?;
        } else {
            write_frame(
                &mut writer,
                format!("ERR unknown verb `{verb}` (QUERY, STATS, PING, QUIT)").as_bytes(),
            )?;
        }
    }
    Ok(())
}

/// Parse, execute, and format one query into one reply buffer: the header
/// line, then the rows as text straight from the result (see
/// [`hashstash::ResultRows::write_text`]). All failures become `ERR` text.
fn run_query(db: &Arc<Database>, session: &mut Session, qid: u32, sql: &str) -> Vec<u8> {
    if sql.is_empty() {
        return b"ERR usage: QUERY <sql>".to_vec();
    }
    let spec = match hashstash_sql::parse_query(sql, qid, &CatalogSchema(db.catalog())) {
        Ok(s) => s,
        Err(e) => {
            // Multi-line ERR payload: message, then the caret snippet.
            return format!("ERR {}\n{}", e.message, e.render(sql)).into_bytes();
        }
    };
    match session.execute(&spec) {
        Ok(r) => {
            let reused: usize = r
                .decisions
                .iter()
                .filter(|(_, case)| case.is_some())
                .count();
            let mut out = format!(
                "OK rows={} wall_us={} reused={}",
                r.rows.len(),
                r.wall_time.as_micros(),
                reused
            )
            .into_bytes();
            r.rows.write_text(&mut out);
            out
        }
        Err(e) => format!("ERR execution failed: {e}").into_bytes(),
    }
}

/// `STATS` reply: one JSON object per configured tenant plus a `global`
/// line, so a bench (or an operator with netcat) can watch per-tenant
/// footprints move under budget pressure.
fn stats_reply(db: &Arc<Database>, registry: &Registry, me: TenantId) -> String {
    let mut names: Vec<(&str, TenantId)> = registry
        .tenants
        .iter()
        .map(|(n, (_, id))| (n.as_str(), *id))
        .collect();
    names.sort_by_key(|(_, id)| id.0);
    let mut out = String::from("OK");
    for (name, id) in names {
        let s = db.tenant_cache_stats(id);
        let marker = if id == me { ",\"you\":true" } else { "" };
        out.push_str(&format!(
            "\n{{\"tenant\":\"{name}\",\"publishes\":{},\"reuses\":{},\"evictions\":{},\
             \"bytes\":{},\"entries\":{},\"hit_ratio\":{:.4}{marker}}}",
            s.publishes,
            s.reuses,
            s.evictions,
            s.bytes,
            s.entries,
            s.hit_ratio(),
        ));
    }
    let g = db.cache_stats();
    out.push_str(&format!(
        "\n{{\"tenant\":\"*\",\"publishes\":{},\"reuses\":{},\"evictions\":{},\"bytes\":{},\
         \"entries\":{},\"hit_ratio\":{:.4}}}",
        g.publishes,
        g.reuses,
        g.evictions,
        g.bytes,
        g.entries,
        g.hit_ratio(),
    ));
    out
}

/// Flush helper used by the binary on ctrl-c-less clean exits.
pub fn flush_database(db: &Database, out: &mut impl Write) {
    match db.flush() {
        Ok(()) => {
            let _ = writeln!(out, "hs-server: state flushed");
        }
        Err(e) => {
            let _ = writeln!(out, "hs-server: flush failed: {e}");
        }
    }
}
