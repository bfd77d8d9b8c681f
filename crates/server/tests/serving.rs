//! End-to-end serving tests: a real `Server` on a loopback socket, real
//! TCP clients, the full HELLO → QUERY → STATS → QUIT life-cycle.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;

use hashstash::Database;
use hashstash_server::protocol::{read_text, write_frame};
use hashstash_server::{CatalogSchema, Server, ServerConfig, TenantSpec};
use hashstash_storage::tpch::{generate, TpchConfig};

struct Client {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        Client {
            r: BufReader::new(stream.try_clone().expect("clone")),
            w: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) -> String {
        write_frame(&mut self.w, line.as_bytes()).expect("send");
        read_text(&mut self.r).expect("recv").expect("open")
    }
}

fn serving_db() -> Arc<Database> {
    Database::builder(generate(TpchConfig::new(0.002, 77))).build()
}

fn two_tenant_server(db: &Arc<Database>) -> Server {
    Server::start(
        Arc::clone(db),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            tenants: vec![
                TenantSpec {
                    name: "alpha".into(),
                    token: "a-secret".into(),
                    floor_bytes: 1 << 20,
                },
                TenantSpec {
                    name: "beta".into(),
                    token: "b-secret".into(),
                    floor_bytes: 0,
                },
            ],
        },
    )
    .expect("bind loopback")
}

#[test]
fn authentication_gates_the_session() {
    let db = serving_db();
    let server = two_tenant_server(&db);

    let mut c = Client::connect(&server);
    // Verbs before HELLO are rejected (except PING/QUIT).
    assert!(c.send("QUERY SELECT * FROM customer").starts_with("ERR"));
    assert_eq!(c.send("PING"), "OK pong");
    // Wrong token and unknown tenant get the same opaque answer.
    let bad_token = c.send("HELLO alpha wrong");
    let bad_name = c.send("HELLO nobody a-secret");
    assert_eq!(bad_token, "ERR authentication failed");
    assert_eq!(bad_name, bad_token);
    // Correct credentials open the session; re-HELLO is an error.
    assert_eq!(c.send("HELLO alpha a-secret"), "OK tenant=alpha");
    assert!(c.send("HELLO alpha a-secret").starts_with("ERR already"));
    assert_eq!(c.send("QUIT"), "OK bye");
}

#[test]
fn queries_execute_and_errors_carry_snippets() {
    let db = serving_db();
    let server = two_tenant_server(&db);

    let mut c = Client::connect(&server);
    assert_eq!(c.send("HELLO beta b-secret"), "OK tenant=beta");

    // A real aggregate over generated TPC-H data.
    let reply = c.send(
        "QUERY SELECT c_age, SUM(l_quantity) FROM customer \
         JOIN orders ON customer.c_custkey = orders.o_custkey \
         JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey \
         GROUP BY c_age",
    );
    assert!(reply.starts_with("OK rows="), "got: {reply}");
    let rows = reply.lines().count() - 1;
    assert!(rows > 0, "aggregate returned no groups");

    // Parse errors come back with the caret snippet, connection stays up.
    let err = c.send("QUERY SELECT * FROM no_such_table");
    assert!(err.starts_with("ERR unknown table"), "got: {err}");
    assert!(err.contains("^^^^"), "no caret snippet in: {err}");
    assert_eq!(c.send("PING"), "OK pong");

    // Unknown verbs are survivable too.
    assert!(c.send("EXPLAIN foo").starts_with("ERR unknown verb"));
}

#[test]
fn stats_are_per_tenant_and_reuse_is_visible() {
    let db = serving_db();
    let server = two_tenant_server(&db);

    let q = "QUERY SELECT c_age, COUNT(c_custkey) FROM customer GROUP BY c_age";
    let mut alpha = Client::connect(&server);
    assert_eq!(alpha.send("HELLO alpha a-secret"), "OK tenant=alpha");
    let first = alpha.send(q);
    assert!(first.starts_with("OK"), "got: {first}");

    // A second client (other tenant) runs the same query and should reuse
    // alpha's published hash table — shared cache, per-tenant accounting.
    let mut beta = Client::connect(&server);
    assert_eq!(beta.send("HELLO beta b-secret"), "OK tenant=beta");
    let second = beta.send(q);
    assert!(second.starts_with("OK"), "got: {second}");

    let stats = beta.send("STATS");
    assert!(stats.starts_with("OK"), "got: {stats}");
    let lines: Vec<&str> = stats.lines().skip(1).collect();
    // alpha, beta, global.
    assert_eq!(lines.len(), 3, "got: {stats}");
    assert!(lines[0].contains("\"tenant\":\"alpha\""));
    assert!(lines[1].contains("\"tenant\":\"beta\""));
    assert!(lines[1].contains("\"you\":true"));
    assert!(lines[2].contains("\"tenant\":\"*\""));
    // alpha owns publishes; the reuse by beta is credited to the owner.
    let alpha_pubs: u64 = field(lines[0], "publishes");
    assert!(alpha_pubs > 0, "alpha published nothing: {}", lines[0]);
    let global_pubs: u64 = field(lines[2], "publishes");
    let beta_pubs: u64 = field(lines[1], "publishes");
    assert!(
        alpha_pubs + beta_pubs <= global_pubs,
        "tenant publishes exceed global"
    );
}

/// A reply's body is the `Display` rendering of the rows `Session::execute`
/// returns in-process, in the same order: for a column selection written
/// from the columns (the wide projection, dates), and for an operator's
/// rows (an `AVG` aggregate's floats).
#[test]
fn reply_bodies_render_the_in_process_rows() {
    let server_db = serving_db();
    let server = two_tenant_server(&server_db);
    let mut c = Client::connect(&server);
    assert_eq!(c.send("HELLO beta b-secret"), "OK tenant=beta");
    // A second engine over the same data: its first execution of each
    // query is a fresh one, like the server's.
    let local_db = serving_db();
    let mut local = local_db.session();
    for sql in [
        "SELECT c_custkey, c_age FROM customer WHERE c_age <= 45",
        "SELECT c_age, AVG(c_acctbal) FROM customer GROUP BY c_age",
        "SELECT o_orderkey, o_orderdate FROM orders WHERE o_orderdate >= '1997-06-01'",
    ] {
        let reply = c.send(&format!("QUERY {sql}"));
        let (header, body) = reply.split_once('\n').expect("rows in the reply");
        let spec =
            hashstash_sql::parse_query(sql, 1, &CatalogSchema(local_db.catalog())).expect("parses");
        let rows = local.execute(&spec).expect("executes").rows;
        assert!(
            header.starts_with(&format!("OK rows={} ", rows.len())),
            "{header}"
        );
        let want: Vec<String> = rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
                cells.join("\t")
            })
            .collect();
        assert_eq!(body, want.join("\n"), "{sql}");
    }
}

/// Pull `"name":<int>` out of a one-line JSON object.
fn field(line: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {line}"));
    line[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {name} in {line}"))
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let db = serving_db();
    let mut server = two_tenant_server(&db);
    let mut c = Client::connect(&server);
    assert_eq!(c.send("HELLO alpha a-secret"), "OK tenant=alpha");
    server.shutdown();
    server.shutdown();
    // New connections are refused or dropped after shutdown; either way
    // no further frames are served.
    drop(server);
}
