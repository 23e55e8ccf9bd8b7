//! Graph input/output.
//!
//! Two formats are supported:
//! * the SNAP-style whitespace edge list (`#`/`%` comment lines, one
//!   `u v` pair per line, ids remapped densely in first-appearance order);
//! * a little-endian binary cache format (`KPLX1`) used by the dataset
//!   registry so repeated benchmark runs skip generation.

use crate::csr::{CsrGraph, GraphBuilder, VertexId};
use crate::error::GraphError;
use bytes::{Buf, BufMut};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parses a whitespace-separated edge list. Vertex labels may be arbitrary
/// `u64`s; they are remapped to dense ids in order of first appearance.
/// Returns the graph and the label of each dense id.
pub fn parse_edge_list(reader: impl Read) -> Result<(CsrGraph, Vec<u64>), GraphError> {
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, VertexId> = HashMap::new();
    let mut labels: Vec<u64> = Vec::new();
    let mut builder = GraphBuilder::new(0);
    let mut intern = |label: u64, builder: &mut GraphBuilder, labels: &mut Vec<u64>| -> VertexId {
        *remap.entry(label).or_insert_with(|| {
            let id = labels.len() as VertexId;
            labels.push(label);
            builder.ensure_vertex(id);
            id
        })
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let u = parse(it.next(), "source vertex")?;
        let v = parse(it.next(), "target vertex")?;
        let ui = intern(u, &mut builder, &mut labels);
        let vi = intern(v, &mut builder, &mut labels);
        builder.add_edge(ui, vi).expect("interned ids are in range");
    }
    Ok((builder.build(), labels))
}

/// Reads an edge-list file from disk.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<(CsrGraph, Vec<u64>), GraphError> {
    let f = std::fs::File::open(path)?;
    parse_edge_list(f)
}

/// Writes `g` as an edge list (one `u v` per line, dense ids).
pub fn write_edge_list(g: &CsrGraph, writer: impl Write) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

const MAGIC: &[u8; 5] = b"KPLX1";

/// Serialises `g` into the compact binary cache format.
pub fn encode_binary(g: &CsrGraph) -> Vec<u8> {
    let n = g.num_vertices();
    let m2 = 2 * g.num_edges();
    let mut buf = Vec::with_capacity(16 + 4 * (n + 1) + 4 * m2);
    buf.put_slice(MAGIC);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(m2 as u64);
    for v in g.vertices() {
        buf.put_u32_le(g.degree(v) as u32);
    }
    for v in g.vertices() {
        for &w in g.neighbors(v) {
            buf.put_u32_le(w);
        }
    }
    buf
}

/// Decodes the binary cache format produced by [`encode_binary`].
pub fn decode_binary(mut data: &[u8]) -> Result<CsrGraph, GraphError> {
    if data.len() < MAGIC.len() + 16 || &data[..MAGIC.len()] != MAGIC {
        return Err(GraphError::BinaryFormat("bad magic".into()));
    }
    data.advance(MAGIC.len());
    let n = data.get_u64_le();
    let m2 = data.get_u64_le();
    // The header sizes come from the file: check them against the payload
    // length without overflow before they size any allocation.
    let expected = n.checked_add(m2).and_then(|words| words.checked_mul(4));
    if expected != Some(data.remaining() as u64) {
        return Err(GraphError::BinaryFormat(format!(
            "header claims n = {n}, 2m = {m2}, found {} payload bytes",
            data.remaining()
        )));
    }
    // Both fit in usize now: 4 * (n + m2) equals a slice length.
    let (n, m2) = (n as usize, m2 as usize);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut acc = 0usize;
    for _ in 0..n {
        acc += data.get_u32_le() as usize;
        offsets.push(acc);
    }
    if acc != m2 {
        return Err(GraphError::BinaryFormat("degree sum mismatch".into()));
    }
    let mut edges = Vec::with_capacity(m2);
    for _ in 0..m2 {
        let w = data.get_u32_le();
        if w as usize >= n {
            return Err(GraphError::BinaryFormat(format!(
                "endpoint {w} out of range"
            )));
        }
        edges.push(w);
    }
    let g = CsrGraph::from_parts(offsets, edges);
    g.check_invariants()
        .map_err(|e| GraphError::BinaryFormat(e.to_string()))?;
    Ok(g)
}

/// Writes the binary cache to `path` (atomically via a temp file).
pub fn write_binary(g: &CsrGraph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, encode_binary(g))?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a binary cache file.
pub fn read_binary(path: impl AsRef<Path>) -> Result<CsrGraph, GraphError> {
    let data = std::fs::read(path)?;
    decode_binary(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn parse_simple_edge_list() {
        let text = "# comment\n% another\n10 20\n20 30\n\n10 30\n";
        let (g, labels) = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(labels, vec![10, 20, 30]);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = parse_edge_list("1 x\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other}"),
        }
        let err = parse_edge_list("7\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::gnm(25, 60, 4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = parse_edge_list(buf.as_slice()).unwrap();
        // Labels are dense already, but first-appearance order may permute
        // ids; compare canonical edge sets under the label mapping.
        assert_eq!(g.num_vertices(), g2.num_vertices() + g.isolated_count());
        assert_eq!(g.num_edges(), g2.num_edges());
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::barabasi_albert(150, 3, 8);
        let bytes = encode_binary(&g);
        let g2 = decode_binary(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = gen::gnm(10, 20, 1);
        let mut bytes = encode_binary(&g);
        bytes[0] = b'X';
        assert!(matches!(
            decode_binary(&bytes),
            Err(GraphError::BinaryFormat(_))
        ));
        let bytes = encode_binary(&g);
        assert!(decode_binary(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn binary_rejects_hostile_header_sizes() {
        // Headers whose 4 * (n + 2m) overflows u64 (and would wrap to the
        // payload length in a release build) must be rejected before any
        // allocation is sized from them.
        for (n, m2) in [
            (1u64 << 62, 0u64),
            (0, 1 << 62),
            (1 << 63, 1 << 63),
            (u64::MAX, 1),
        ] {
            let mut bytes = MAGIC.to_vec();
            bytes.put_u64_le(n);
            bytes.put_u64_le(m2);
            assert!(
                matches!(decode_binary(&bytes), Err(GraphError::BinaryFormat(_))),
                "n = {n}, 2m = {m2}"
            );
        }
    }

    #[test]
    fn binary_file_roundtrip() {
        let g = gen::gnm(30, 80, 2);
        let dir = std::env::temp_dir().join("kplex-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.kplx");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
