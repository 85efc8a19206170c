//! A small blocking client for the line protocol.
//!
//! Supports both call/response ([`Client::request`]) and pipelined use
//! ([`Client::send`] + [`Client::recv`] with id matching done by the
//! caller). The retry helper turns `busy` backpressure into bounded
//! client-side backoff — the server never buffers for a slow client.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::proto::{Request, Response, Status, Val};

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// How a retried submission ended.
#[derive(Clone, Debug)]
pub enum RetryOutcome {
    /// Terminal response (ok / rejected / failed) after `busy_retries`
    /// busy rounds.
    Done { response: Response, busy_retries: u32 },
    /// Still busy after the retry budget.
    GaveUp { busy_retries: u32 },
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Bound how long [`Client::recv`] blocks. Applies to the shared
    /// underlying socket (the reader is a `try_clone` of the writer).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(dur)
    }

    /// Fire one request line without waiting.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Send raw bytes — the chaos harness garbles connections with this.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Read the next response line (blocking).
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse_line(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// One request, one response.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Fetch the server's live stats snapshot and pull the `metrics`
    /// payload field out of it: the [`majc_obs`] registry as a JSON
    /// string. Errors if the server answered anything but `ok` or the
    /// field is missing (a pre-observability server).
    pub fn stats_metrics_json(&mut self) -> std::io::Result<String> {
        let resp = self.request(&Request::Stats { id: "stats".into() })?;
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        if !matches!(resp.status, Status::Ok(_)) {
            return Err(bad("stats request refused"));
        }
        resp.field("metrics")
            .and_then(Val::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad("stats response carries no metrics field"))
    }

    /// Submit with bounded busy-retry, honoring the server's declared
    /// `retry_after_ms` backoff.
    pub fn submit_retry(
        &mut self,
        req: &Request,
        max_busy_retries: u32,
    ) -> std::io::Result<RetryOutcome> {
        let mut busy_retries = 0;
        loop {
            let response = self.request(req)?;
            match response.status {
                Status::Busy { retry_after_ms } => {
                    if busy_retries >= max_busy_retries {
                        return Ok(RetryOutcome::GaveUp { busy_retries });
                    }
                    busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms));
                }
                _ => return Ok(RetryOutcome::Done { response, busy_retries }),
            }
        }
    }
}
