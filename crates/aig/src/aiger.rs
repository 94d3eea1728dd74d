//! AIGER format reader and writer (ASCII `aag` and binary `aig`).
//!
//! Only combinational AIGs are supported; inputs with latches are
//! rejected with [`AigError::Unsupported`]. Symbol tables (`iN`/`oN`
//! lines) and comments round-trip.
//!
//! Format reference: Biere, "The AIGER And-Inverter Graph (AIG) Format
//! Version 20071012".

use crate::error::AigError;
use crate::graph::Aig;
use crate::lit::Lit;

/// Serializes `aig` in ASCII AIGER (`aag`) format.
///
/// Node ids are compacted: inputs first, then AND nodes in topological
/// order, as required by the format.
///
/// # Examples
///
/// ```
/// use aig::{Aig, aiger};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let f = g.and(a, b);
/// g.add_output(f, Some("f"));
/// let text = aiger::to_ascii(&g);
/// assert!(text.starts_with("aag 3 2 0 1 1"));
/// let back = aiger::from_ascii(&text)?;
/// assert_eq!(back.num_ands(), 1);
/// # Ok::<(), aig::AigError>(())
/// ```
pub fn to_ascii(aig: &Aig) -> String {
    let (map, num_ands) = compact_map(aig);
    let m = aig.num_inputs() + num_ands;
    // One buffer, sized once: every line is appended with the manual
    // decimal formatter, so a 1M-node dump does zero intermediate
    // `format!` allocations.
    let mut out = Vec::with_capacity(
        40 + 9 * (aig.num_inputs() + aig.num_outputs()) + 27 * num_ands + aig.name().len(),
    );
    out.extend_from_slice(b"aag ");
    push_dec(&mut out, m as u32);
    out.push(b' ');
    push_dec(&mut out, aig.num_inputs() as u32);
    out.extend_from_slice(b" 0 ");
    push_dec(&mut out, aig.num_outputs() as u32);
    out.push(b' ');
    push_dec(&mut out, num_ands as u32);
    out.push(b'\n');
    for i in 0..aig.num_inputs() {
        push_dec(&mut out, 2 * (i as u32 + 1));
        out.push(b'\n');
    }
    for o in aig.outputs() {
        push_dec(&mut out, mapped_lit(o.lit, &map));
        out.push(b'\n');
    }
    let (f0s, f1s) = aig.fanin_arrays();
    for id in aig.and_ids() {
        let (f0, f1) = (f0s[id as usize], f1s[id as usize]);
        let lhs = map[id as usize] * 2;
        let (r0, r1) = ordered_rhs(mapped_lit(f0, &map), mapped_lit(f1, &map));
        push_dec(&mut out, lhs);
        out.push(b' ');
        push_dec(&mut out, r0);
        out.push(b' ');
        push_dec(&mut out, r1);
        out.push(b'\n');
    }
    append_symbol_table(&mut out, aig);
    // SAFETY-free guarantee: everything appended is ASCII.
    String::from_utf8(out).expect("AIGER ASCII output is valid UTF-8")
}

/// Serializes `aig` in binary AIGER (`aig`) format.
pub fn to_binary(aig: &Aig) -> Vec<u8> {
    let (map, num_ands) = compact_map(aig);
    let m = aig.num_inputs() + num_ands;
    let mut out = Vec::with_capacity(40 + 9 * aig.num_outputs() + 3 * num_ands + aig.name().len());
    out.extend_from_slice(b"aig ");
    push_dec(&mut out, m as u32);
    out.push(b' ');
    push_dec(&mut out, aig.num_inputs() as u32);
    out.extend_from_slice(b" 0 ");
    push_dec(&mut out, aig.num_outputs() as u32);
    out.push(b' ');
    push_dec(&mut out, num_ands as u32);
    out.push(b'\n');
    for o in aig.outputs() {
        push_dec(&mut out, mapped_lit(o.lit, &map));
        out.push(b'\n');
    }
    let (f0s, f1s) = aig.fanin_arrays();
    for id in aig.and_ids() {
        let (f0, f1) = (f0s[id as usize], f1s[id as usize]);
        let lhs = map[id as usize] * 2;
        let (r0, r1) = ordered_rhs(mapped_lit(f0, &map), mapped_lit(f1, &map));
        // Binary encoding: delta0 = lhs - r0, delta1 = r0 - r1,
        // with r0 >= r1 and lhs > r0.
        push_leb(&mut out, lhs - r0);
        push_leb(&mut out, r0 - r1);
    }
    append_symbol_table(&mut out, aig);
    out
}

/// Parses an ASCII AIGER (`aag`) document.
///
/// # Errors
///
/// [`AigError::ParseAiger`] on malformed input,
/// [`AigError::Unsupported`] if the design contains latches.
pub fn from_ascii(text: &str) -> Result<Aig, AigError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
    let h = parse_header(header, "aag", 1)?;
    // Reservations trust the header only as far as the remaining text
    // can back it: every input/output line takes at least 2 bytes and
    // every AND line at least 6, so a hostile header cannot force a
    // huge allocation before the truncated body is noticed.
    let rest = text.len() - header.len();
    let mut lits: Vec<u32> = Vec::with_capacity(h.i.min(rest / 2));
    for _ in 0..h.i {
        let (n, line) = lines
            .next()
            .ok_or_else(|| parse_err(0, "truncated input section"))?;
        let v: u32 = line
            .trim()
            .parse()
            .map_err(|_| parse_err(n + 1, "bad input literal"))?;
        lits.push(v);
    }
    let mut out_lits: Vec<u32> = Vec::with_capacity(h.o.min(rest / 2));
    for _ in 0..h.o {
        let (n, line) = lines
            .next()
            .ok_or_else(|| parse_err(0, "truncated output section"))?;
        let v: u32 = line
            .trim()
            .parse()
            .map_err(|_| parse_err(n + 1, "bad output literal"))?;
        out_lits.push(v);
    }
    let mut ands: Vec<(u32, u32, u32)> = Vec::with_capacity(h.a.min(rest / 6));
    for _ in 0..h.a {
        let (n, line) = lines
            .next()
            .ok_or_else(|| parse_err(0, "truncated AND section"))?;
        let mut it = line.split_whitespace();
        let mut next = || -> Result<u32, AigError> {
            it.next()
                .ok_or_else(|| parse_err(n + 1, "missing AND field"))?
                .parse()
                .map_err(|_| parse_err(n + 1, "bad AND literal"))
        };
        let lhs = next()?;
        let r0 = next()?;
        let r1 = next()?;
        ands.push((lhs, r0, r1));
    }
    let symbols: Vec<&str> = lines.map(|(_, l)| l).collect();
    build(h, &lits, &out_lits, &ands, &symbols)
}

/// Parses a binary AIGER (`aig`) document.
///
/// # Errors
///
/// [`AigError::ParseAiger`] on malformed input,
/// [`AigError::Unsupported`] if the design contains latches.
pub fn from_binary(bytes: &[u8]) -> Result<Aig, AigError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| parse_err(1, "missing header newline"))?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| parse_err(1, "non-utf8 header"))?;
    let h = parse_header(header, "aig", 1)?;
    let mut pos = nl + 1;
    // Reservations are capped by what the remaining bytes can encode
    // (an output line takes at least 2 bytes, a delta-coded AND at
    // least 2), so a hostile header fails on the truncated body
    // instead of aborting on its allocation.
    let mut out_lits = Vec::with_capacity(h.o.min((bytes.len() - pos) / 2));
    for _ in 0..h.o {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| parse_err(pos, "truncated outputs"))?;
        let line = std::str::from_utf8(&bytes[pos..pos + end])
            .map_err(|_| parse_err(pos, "non-utf8 output line"))?;
        out_lits.push(
            line.trim()
                .parse::<u32>()
                .map_err(|_| parse_err(pos, "bad output literal"))?,
        );
        pos += end + 1;
    }
    // ANDs: delta coded.
    let mut ands = Vec::with_capacity(h.a.min((bytes.len() - pos) / 2));
    for k in 0..h.a {
        let lhs = 2 * (h.i + 1 + k) as u32;
        let d0 = read_leb(bytes, &mut pos)?;
        let d1 = read_leb(bytes, &mut pos)?;
        let r0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| parse_err(pos, "delta0 exceeds lhs"))?;
        let r1 = r0
            .checked_sub(d1)
            .ok_or_else(|| parse_err(pos, "delta1 exceeds rhs0"))?;
        ands.push((lhs, r0, r1));
    }
    let tail =
        std::str::from_utf8(&bytes[pos..]).map_err(|_| parse_err(pos, "non-utf8 symbols"))?;
    let symbols: Vec<&str> = tail.lines().collect();
    // In binary AIGER the inputs are implicit: 2, 4, ..., 2*I.
    let lits: Vec<u32> = (1..=h.i as u32).map(|v| 2 * v).collect();
    build(h, &lits, &out_lits, &ands, &symbols)
}

/// Parses either AIGER flavor based on the magic string.
///
/// # Errors
///
/// See [`from_ascii`] and [`from_binary`].
pub fn from_bytes(bytes: &[u8]) -> Result<Aig, AigError> {
    if bytes.starts_with(b"aag") {
        from_ascii(std::str::from_utf8(bytes).map_err(|_| parse_err(1, "non-utf8 aag file"))?)
    } else if bytes.starts_with(b"aig") {
        from_binary(bytes)
    } else {
        Err(parse_err(1, "unknown magic (expected `aag` or `aig`)"))
    }
}

/// Reads an AIGER file (either flavor).
///
/// # Errors
///
/// I/O errors plus everything [`from_bytes`] reports.
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Aig, AigError> {
    from_bytes(&std::fs::read(path)?)
}

/// Writes `aig` to a file; binary if the extension is `.aig`, ASCII
/// otherwise.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_file(aig: &Aig, path: impl AsRef<std::path::Path>) -> Result<(), AigError> {
    let path = path.as_ref();
    let data = if path.extension().is_some_and(|e| e == "aig") {
        to_binary(aig)
    } else {
        to_ascii(aig).into_bytes()
    };
    std::fs::write(path, data)?;
    Ok(())
}

struct Header {
    i: usize,
    o: usize,
    a: usize,
}

fn parse_header(line: &str, magic: &str, lineno: usize) -> Result<Header, AigError> {
    let mut it = line.split_whitespace();
    let tag = it.next().ok_or_else(|| parse_err(lineno, "empty header"))?;
    if tag != magic {
        return Err(parse_err(
            lineno,
            &format!("expected `{magic}` magic, found `{tag}`"),
        ));
    }
    let nums: Vec<usize> = it
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| parse_err(lineno, "non-numeric header field"))?;
    if nums.len() != 5 {
        return Err(parse_err(lineno, "header must have 5 fields M I L O A"));
    }
    let (m, i, l, o, a) = (nums[0], nums[1], nums[2], nums[3], nums[4]);
    if l != 0 {
        return Err(AigError::Unsupported(format!(
            "{l} latches (only combinational AIGs are supported)"
        )));
    }
    if m < i + a {
        return Err(parse_err(lineno, "header M < I + A"));
    }
    // Literals are 32-bit (`2 * var + 1`): a larger M cannot be
    // represented, and its header would only drive huge allocations.
    if m > (u32::MAX as usize - 1) / 2 {
        return Err(parse_err(
            lineno,
            "header M exceeds the 32-bit literal range",
        ));
    }
    Ok(Header { i, o, a })
}

fn build(
    h: Header,
    in_lits: &[u32],
    out_lits: &[u32],
    ands: &[(u32, u32, u32)],
    symbols: &[&str],
) -> Result<Aig, AigError> {
    let mut g = Aig::new();
    // The parsed sections give the exact shape: reserve the node lanes
    // and the strash table once instead of growing through ~20
    // rehashes on a 1M-node ingest. (Sized from the parsed data, not
    // the header, which a hostile file can inflate.)
    g.reserve_nodes(1 + in_lits.len() + ands.len(), ands.len());
    // var (aiger) -> literal in our graph
    let max_var = h.i + h.a;
    let mut map: Vec<Lit> = vec![Lit::INVALID; max_var + 1];
    map[0] = Lit::FALSE;
    for (k, &l) in in_lits.iter().enumerate() {
        if l % 2 != 0 || l == 0 {
            return Err(parse_err(k + 2, "input literal must be even and nonzero"));
        }
        let v = (l / 2) as usize;
        if v > max_var || map[v] != Lit::INVALID {
            return Err(parse_err(
                k + 2,
                "input variable out of range or duplicated",
            ));
        }
        map[v] = g.add_input();
    }
    for &(lhs, r0, r1) in ands {
        if lhs % 2 != 0 {
            return Err(parse_err(0, "AND lhs must be even"));
        }
        let v = (lhs / 2) as usize;
        if v > max_var || map[v] != Lit::INVALID {
            return Err(parse_err(0, "AND lhs out of range or duplicated"));
        }
        let a = lookup(&map, r0)?;
        let b = lookup(&map, r1)?;
        map[v] = g.and(a, b);
    }
    for &l in out_lits {
        let lit = lookup(&map, l)?;
        g.add_output(lit, None::<&str>);
    }
    // Symbol table + comments. The first comment line is the design
    // name by this module's own convention (see `append_symbol_table`),
    // so a write/read/write cycle is byte-identical, name included.
    let mut out_names: Vec<Option<String>> = vec![None; h.o];
    let mut in_names: Vec<Option<String>> = vec![None; h.i];
    let mut design_name: Option<&str> = None;
    let mut lines = symbols.iter();
    while let Some(&line) = lines.next() {
        if line.starts_with('c') {
            design_name = lines.next().copied().filter(|n| !n.is_empty());
            break;
        }
        if let Some(rest) = line.strip_prefix('i') {
            if let Some((idx, name)) = split_symbol(rest) {
                if idx < h.i {
                    in_names[idx] = Some(name.to_owned());
                }
            }
        } else if let Some(rest) = line.strip_prefix('o') {
            if let Some((idx, name)) = split_symbol(rest) {
                if idx < h.o {
                    out_names[idx] = Some(name.to_owned());
                }
            }
        }
    }
    let mut named = Aig::new();
    // Rebuild names in-place instead: Aig has no rename API for
    // inputs, so rebuild with names when any symbol is present.
    if in_names.iter().any(Option::is_some) {
        let mut map2: Vec<Lit> = vec![Lit::INVALID; g.num_nodes()];
        map2[0] = Lit::FALSE;
        for (idx, &pi) in g.inputs().iter().enumerate() {
            map2[pi as usize] = named.add_named_input(in_names[idx].clone());
        }
        for id in g.and_ids() {
            let [f0, f1] = g.fanins(id);
            let a = map2[f0.var() as usize].complement_if(f0.is_complement());
            let b = map2[f1.var() as usize].complement_if(f1.is_complement());
            map2[id as usize] = named.and(a, b);
        }
        for (k, o) in g.outputs().iter().enumerate() {
            let l = map2[o.lit.var() as usize].complement_if(o.lit.is_complement());
            named.add_output(l, out_names[k].clone());
        }
        if let Some(n) = design_name {
            named.set_name(n);
        }
        return Ok(named);
    }
    for (k, name) in out_names.into_iter().enumerate() {
        if name.is_some() {
            g.rename_output(k, name);
        }
    }
    if let Some(n) = design_name {
        g.set_name(n);
    }
    Ok(g)
}

fn split_symbol(rest: &str) -> Option<(usize, &str)> {
    let mut parts = rest.splitn(2, ' ');
    let idx = parts.next()?.parse().ok()?;
    let name = parts.next()?;
    Some((idx, name))
}

fn lookup(map: &[Lit], aiger_lit: u32) -> Result<Lit, AigError> {
    let v = (aiger_lit / 2) as usize;
    if v >= map.len() || map[v] == Lit::INVALID {
        return Err(parse_err(
            0,
            &format!("literal {aiger_lit} referenced before definition"),
        ));
    }
    Ok(map[v].complement_if(aiger_lit % 2 == 1))
}

fn parse_err(position: usize, msg: &str) -> AigError {
    AigError::ParseAiger {
        position,
        msg: msg.to_owned(),
    }
}

/// Maps internal node ids to compact AIGER variable indices
/// (inputs 1..=I, then ANDs I+1..=I+A in topological order).
fn compact_map(aig: &Aig) -> (Vec<u32>, usize) {
    let mut map = vec![0u32; aig.num_nodes()];
    let mut next = 1u32;
    for &pi in aig.inputs() {
        map[pi as usize] = next;
        next += 1;
    }
    let mut num_ands = 0usize;
    for id in aig.and_ids() {
        map[id as usize] = next;
        next += 1;
        num_ands += 1;
    }
    (map, num_ands)
}

fn mapped_lit(l: Lit, map: &[u32]) -> u32 {
    map[l.var() as usize] * 2 + l.is_complement() as u32
}

/// Binary AIGER requires rhs0 >= rhs1.
fn ordered_rhs(a: u32, b: u32) -> (u32, u32) {
    if a >= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn push_leb(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_leb(bytes: &[u8], pos: &mut usize) -> Result<u32, AigError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| parse_err(*pos, "truncated delta encoding"))?;
        *pos += 1;
        v |= u32::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 28 {
            return Err(parse_err(*pos, "delta encoding too long"));
        }
    }
}

/// Appends `v` in decimal (no `format!` temporaries on the hot dump
/// loops).
fn push_dec(out: &mut Vec<u8>, mut v: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

fn append_symbol_table(out: &mut Vec<u8>, aig: &Aig) {
    for i in 0..aig.num_inputs() {
        if let Some(name) = aig.input_name(i) {
            out.push(b'i');
            push_dec(out, i as u32);
            out.push(b' ');
            out.extend_from_slice(name.as_bytes());
            out.push(b'\n');
        }
    }
    for (i, o) in aig.outputs().iter().enumerate() {
        if let Some(name) = &o.name {
            out.push(b'o');
            push_dec(out, i as u32);
            out.push(b' ');
            out.extend_from_slice(name.as_bytes());
            out.push(b'\n');
        }
    }
    if !aig.name().is_empty() {
        out.extend_from_slice(b"c\n");
        out.extend_from_slice(aig.name().as_bytes());
        out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::equiv_exhaustive;

    fn sample() -> Aig {
        let mut g = Aig::new();
        let a = g.add_named_input(Some("a"));
        let b = g.add_named_input(Some("b"));
        let c = g.add_input();
        let x = g.xor(a, b);
        let f = g.mux(c, x, a);
        g.add_output(f, Some("f"));
        g.add_output(x, None::<&str>);
        g
    }

    #[test]
    fn ascii_roundtrip() {
        let g = sample();
        let text = to_ascii(&g);
        let back = from_ascii(&text).expect("well-formed");
        assert!(equiv_exhaustive(&g, &back).expect("small"));
        assert_eq!(back.input_name(0), Some("a"));
        assert_eq!(back.outputs()[0].name.as_deref(), Some("f"));
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let bytes = to_binary(&g);
        let back = from_binary(&bytes).expect("well-formed");
        assert!(equiv_exhaustive(&g, &back).expect("small"));
    }

    #[test]
    fn autodetect() {
        let g = sample();
        assert!(from_bytes(to_ascii(&g).as_bytes()).is_ok());
        assert!(from_bytes(&to_binary(&g)).is_ok());
        assert!(from_bytes(b"wat 1 2 3").is_err());
    }

    #[test]
    fn constant_output() {
        let mut g = Aig::with_inputs(1);
        g.add_output(Lit::TRUE, None::<&str>);
        g.add_output(Lit::FALSE, None::<&str>);
        let back = from_ascii(&to_ascii(&g)).expect("ok");
        assert!(equiv_exhaustive(&g, &back).expect("tiny"));
    }

    #[test]
    fn rejects_latches() {
        assert!(matches!(
            from_ascii("aag 1 0 1 0 0\n2 3\n"),
            Err(AigError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_ascii("").is_err());
        assert!(from_ascii("aag x y z").is_err());
        assert!(from_ascii("aag 1 1 0 0 1\n2\n").is_err()); // M < I+A
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir();
        let p_aag = dir.join("aig_timing_test.aag");
        let p_aig = dir.join("aig_timing_test.aig");
        write_file(&g, &p_aag).expect("write aag");
        write_file(&g, &p_aig).expect("write aig");
        let b1 = read_file(&p_aag).expect("read aag");
        let b2 = read_file(&p_aig).expect("read aig");
        assert!(equiv_exhaustive(&b1, &b2).expect("small"));
        let _ = std::fs::remove_file(p_aag);
        let _ = std::fs::remove_file(p_aig);
    }

    /// Headers declaring billions of objects over a few bytes of body
    /// must fail on the truncated body, not abort on the allocation
    /// the header asks for.
    #[test]
    fn hostile_headers_are_errors() {
        // M beyond the 32-bit literal range (the 24 GB reservation
        // that used to abort the process).
        assert!(from_bytes(b"aig 3000000000 1000000000 0 1 2000000000\n2\n").is_err());
        // In range, but the body cannot back the declared sections.
        assert!(from_bytes(b"aig 2000000000 0 0 1 2000000000\n2\n").is_err());
        assert!(from_bytes(b"aig 2000000000 0 0 2000000000 0\n2\n").is_err());
        assert!(from_bytes(b"aag 2000000000 0 0 1 2000000000\n2\n").is_err());
        assert!(from_bytes(b"aag 2000000000 1000000000 0 0 0\n2\n").is_err());
    }

    #[test]
    fn forward_reference_rejected() {
        // AND referencing an undefined variable.
        let text = "aag 3 1 0 1 2\n2\n4\n4 6 2\n6 2 2\n";
        assert!(from_ascii(text).is_err());
    }
}
