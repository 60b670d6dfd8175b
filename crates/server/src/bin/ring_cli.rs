//! `ring-cli`: drive a Ring cluster from a separate process.
//!
//! ```text
//! ring-cli --config ring.conf put 7 hello          # default memgest
//! ring-cli --config ring.conf put 7 hello 1        # memgest 1
//! ring-cli --config ring.conf get 7
//! ring-cli --config ring.conf move 7 1
//! ring-cli --config ring.conf del 7
//! ring-cli --config ring.conf stats 0
//! ring-cli --config ring.conf create-memgest srs:2,1
//! ring-cli --config ring.conf descriptor 1
//! ```
//!
//! Mutations print `OK version=<v>` (or `OK`); `get` prints the value
//! bytes on stdout. Exit status: 0 success, 1 operation failure, 2
//! usage error.

use std::sync::Arc;

use ring_kvs::client::{ClientOptions, RingClient};
use ring_kvs::proto::Msg;
use ring_kvs::types::{Key, MemgestId};
use ring_kvs::RingError;
use ring_net::TcpTransport;
use ring_server::config::{parse_cli_args, parse_scheme, ConfigError};
use ring_wire::MsgCodec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_cli_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ring-cli: {e}");
            std::process::exit(2);
        }
    };
    let ep = TcpTransport::client(parsed.id, parsed.topology.peers.clone(), Arc::new(MsgCodec));
    let mut client = RingClient::new(
        ep,
        parsed.topology.config(),
        ClientOptions {
            timeout: parsed.timeout,
            ..ClientOptions::default()
        },
    );
    match run(&mut client, &parsed.command) {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("ring-cli: {msg}");
            std::process::exit(2);
        }
        Err(CliError::Op(e)) => {
            eprintln!("ring-cli: {e}");
            std::process::exit(1);
        }
    }
}

enum CliError {
    Usage(String),
    Op(RingError),
}

impl From<RingError> for CliError {
    fn from(e: RingError) -> CliError {
        CliError::Op(e)
    }
}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> CliError {
        CliError::Usage(e.0)
    }
}

fn want<T: std::str::FromStr>(words: &[String], i: usize, what: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    let w = words
        .get(i)
        .ok_or_else(|| CliError::Usage(format!("missing {what}")))?;
    w.parse()
        .map_err(|e| CliError::Usage(format!("bad {what} `{w}`: {e}")))
}

fn run(client: &mut RingClient<TcpTransport<Msg>>, words: &[String]) -> Result<(), CliError> {
    match words[0].as_str() {
        "put" => {
            let key: Key = want(words, 1, "key")?;
            let value = words
                .get(2)
                .ok_or_else(|| CliError::Usage("missing value".into()))?;
            let version = match words.get(3) {
                Some(m) => {
                    let id: MemgestId = m
                        .parse()
                        .map_err(|e| CliError::Usage(format!("bad memgest `{m}`: {e}")))?;
                    client.put_to(key, value.as_bytes(), id)?
                }
                None => client.put(key, value.as_bytes())?,
            };
            println!("OK version={version}");
        }
        "get" => {
            let key: Key = want(words, 1, "key")?;
            let (value, version) = client.get_versioned(key)?;
            eprintln!("version={version}");
            println!("{}", String::from_utf8_lossy(&value));
        }
        "del" => {
            let key: Key = want(words, 1, "key")?;
            client.delete(key)?;
            println!("OK");
        }
        "move" => {
            let key: Key = want(words, 1, "key")?;
            let dst: MemgestId = want(words, 2, "destination memgest")?;
            let version = client.move_key(key, dst)?;
            println!("OK version={version}");
        }
        "stats" => {
            let node: u32 = want(words, 1, "node id")?;
            let s = client.node_stats(node)?;
            println!(
                "node={} epoch={} active={} puts={} gets={} deletes={} moves={} redundancy_updates={}",
                s.node,
                s.epoch,
                s.active,
                s.ops.puts,
                s.ops.gets,
                s.ops.deletes,
                s.ops.moves,
                s.ops.redundancy_updates,
            );
        }
        "create-memgest" => {
            let spec = words
                .get(1)
                .ok_or_else(|| CliError::Usage("missing scheme spec".into()))?;
            let id = client.create_memgest(parse_scheme(spec)?)?;
            println!("OK id={id}");
        }
        "descriptor" => {
            let id: MemgestId = want(words, 1, "memgest id")?;
            let d = client.memgest_descriptor(id)?;
            match d.scheme {
                ring_kvs::types::Scheme::Rep { r } => {
                    println!("rep:{r}@{}", d.block_size)
                }
                ring_kvs::types::Scheme::Srs { k, m } => {
                    println!("srs:{k},{m}@{}", d.block_size)
                }
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}` (put | get | del | move | stats | create-memgest | descriptor)"
            )));
        }
    }
    Ok(())
}
