//! Minimal HTTP/1.0 plumbing for the `GET /metrics` scrape endpoint the
//! reactor serves beside histql connections. This is deliberately not a web server: one request per connection, the head
//! is parsed for its request line only, and the response always closes the
//! connection — exactly what a Prometheus-style scraper needs and nothing
//! more.

/// Cap on a buffered request head; anything longer is dropped (a scrape
/// request line plus typical headers is a few hundred bytes).
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// True once `buf` holds a complete request head (the blank line after the
/// headers has arrived — bare-`\n` separators are tolerated).
pub(crate) fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// Routes a buffered request head: `200` with the rendered metrics body
/// for `GET /metrics`, `404` otherwise. `body` runs only on the metrics
/// path, so a miss never assembles the catalog.
pub(crate) fn respond(head: &[u8], body: impl FnOnce() -> String) -> Vec<u8> {
    let line = head.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        let body = body();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    } else {
        let body = "not found\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_completion_handles_both_separators() {
        assert!(!head_complete(b"GET /metrics HTTP/1.0\r\n"));
        assert!(head_complete(b"GET /metrics HTTP/1.0\r\n\r\n"));
        assert!(head_complete(b"GET /metrics HTTP/1.0\n\n"));
        assert!(head_complete(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
    }

    #[test]
    fn metrics_path_gets_the_body_with_a_content_length() {
        let reply = respond(b"GET /metrics HTTP/1.0\r\n\r\n", || "a 1\n".into());
        let text = String::from_utf8(reply).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 4\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\na 1\n"), "{text}");
        // Query strings still hit the endpoint (scrapers append them).
        let reply = respond(b"GET /metrics?x=1 HTTP/1.1\r\n\r\n", || "b 2\n".into());
        assert!(String::from_utf8(reply).unwrap().contains("200 OK"));
    }

    #[test]
    fn everything_else_is_404_and_never_renders() {
        for head in [
            &b"GET / HTTP/1.0\r\n\r\n"[..],
            b"POST /metrics HTTP/1.0\r\n\r\n",
            b"GET /metricsx HTTP/1.0\r\n\r\n",
            b"garbage\r\n\r\n",
        ] {
            let reply = respond(head, || panic!("body rendered on a miss"));
            assert!(
                String::from_utf8_lossy(&reply).starts_with("HTTP/1.0 404"),
                "{}",
                String::from_utf8_lossy(head)
            );
        }
    }
}
