//! Shared MiniC program corpus for the benchmark, the `dangle-lint` CLI and
//! the tests.
//!
//! The server session loops model the Table 1 servers the paper evaluates
//! (fingerd/ftpd/ghttpd) at a parameterizable scale, and the injected-UAF
//! corpus gives every harness the same set of programs whose detection the
//! detectors must reproduce. Centralizing the sources here keeps
//! `perfbench`, the lint and sampling claims and the engine-equivalence
//! tests measuring and asserting on the *same* programs.

/// fingerd-style: one request record per query, used and retired inline.
/// Every site is ProvablySafe — full elision under dangle-lint.
pub fn fingerd(requests: u64) -> String {
    format!(
        "struct req {{ user: int, len: int }}
         fn main() {{
             var n: int = 0;
             while (n < {requests}) {{
                 var q: ptr<req> = malloc(req);
                 q->user = n * 7;
                 q->len = n + 3;
                 print(q->user + q->len);
                 free(q);
                 n = n + 1;
             }}
         }}"
    )
}

/// ftpd-style: a session record plus a per-transfer buffer array, freed on
/// both sides of a branch. Still ProvablySafe throughout.
pub fn ftpd(sessions: u64) -> String {
    format!(
        "struct sess {{ id: int, bytes: int }}
         struct buf {{ data: int }}
         fn main() {{
             var s: int = 0;
             while (s < {sessions}) {{
                 var c: ptr<sess> = malloc(sess);
                 c->id = s;
                 var b: ptr<buf> = malloc_array(buf, 8);
                 var i: int = 0;
                 while (i < 8) {{
                     b[i]->data = s + i * 2;
                     c->bytes = c->bytes + b[i]->data;
                     i = i + 1;
                 }}
                 print(c->bytes);
                 if (c->bytes < 100) {{ free(b); }} else {{ free(b); }}
                 free(c);
                 s = s + 1;
             }}
         }}"
    )
}

/// ghttpd-style: per-request responses retire inline (elidable), but the
/// connection list lives in a global and is torn down through it — those
/// frees stay Unknown and keep full protection. Class-granular elision in
/// one program.
pub fn ghttpd(requests: u64) -> String {
    format!(
        "struct conn {{ fd: int, next: ptr<conn> }}
         struct resp {{ code: int, size: int }}
         global live: ptr<conn>;
         fn main() {{
             var r: int = 0;
             while (r < {requests}) {{
                 var c: ptr<conn> = malloc(conn);
                 c->fd = r;
                 c->next = live;
                 live = c;
                 var p: ptr<resp> = malloc(resp);
                 p->code = 200;
                 p->size = r * 100;
                 print(p->code + p->size);
                 free(p);
                 r = r + 1;
             }}
             while (live != null) {{
                 var t: ptr<conn> = live;
                 live = t->next;
                 free(t);
             }}
         }}"
    )
}

/// ghttpd keep-alive loop — the program `perfbench`'s keepalive-vm runs. Each
/// connection serves `requests` requests; a request allocates a response
/// record, fills its headers through the detector-protected heap, and
/// checksums the (simulated) body with a tight arithmetic loop — the mix
/// of per-request allocator traffic, field traffic and plain compute that
/// makes a keep-alive server interpreter-bound.
pub fn ghttpd_keepalive(connections: u64, requests: u64) -> String {
    format!(
        "struct conn {{ id: int, reqs: int, acc: int }}
         struct resp {{ code: int, size: int, check: int }}
         fn checksum(seed: int, len: int) -> int {{
             var acc: int = seed;
             var i: int = 0;
             while (i < len) {{
                 acc = (acc * 31 + i) % 65536;
                 i = i + 1;
             }}
             return acc;
         }}
         fn handle(c: ptr<conn>, r: int) -> int {{
             var p: ptr<resp> = malloc(resp);
             p->code = 200;
             p->size = 512 + (r % 7) * 128;
             p->check = checksum(c->id * 131 + r, p->size / 8);
             c->reqs = c->reqs + 1;
             c->acc = (c->acc + p->check) % 1000003;
             var out: int = p->code + p->check;
             free(p);
             return out;
         }}
         fn main() {{
             var total: int = 0;
             var cid: int = 0;
             while (cid < {connections}) {{
                 var c: ptr<conn> = malloc(conn);
                 c->id = cid;
                 var r: int = 0;
                 while (r < {requests}) {{
                     total = (total + handle(c, r)) % 1000003;
                     r = r + 1;
                 }}
                 print(c->acc);
                 free(c);
                 cid = cid + 1;
             }}
             print(total);
         }}"
    )
}

/// The paper's Figure 1 running example with the dangling
/// `p->next->val = 7` line replaced by a safe read of the (still-live)
/// head — the "what the programmer meant" variant. Interprocedural
/// dangle-lint proves every free site safe (the linear-traversal free in
/// `free_all_but_head` frees a freshly-built forest it owns), so the whole
/// list class is elidable; the intraprocedural mode must leave the site
/// Unknown because the free is behind two calls.
pub fn figure1_fixed() -> String {
    crate::parse::FIGURE_1.replace(
        "p->next->val = 7; // p->next is dangling",
        "print(p->val);",
    )
}

/// ftpd-style session loop factored through helpers, exercising the
/// summary pipeline end to end: `open_session` *returns* a fresh
/// allocation, `xfer` only dereferences, and `close_session` must-frees
/// both of its parameters. Every free site is ProvablySafe under the
/// interprocedural lint and Unknown under the intraprocedural one — the
/// corpus's headline intra-vs-inter delta.
pub fn ftpd_helper(sessions: u64) -> String {
    format!(
        "struct sess {{ id: int, bytes: int }}
         struct buf {{ data: int, cap: int }}
         fn open_session(id: int) -> ptr<sess> {{
             var s: ptr<sess> = malloc(sess);
             s->id = id;
             s->bytes = 0;
             return s;
         }}
         fn xfer(s: ptr<sess>, b: ptr<buf>, n: int) {{
             b->data = n * 2 + 1;
             s->bytes = s->bytes + b->data;
         }}
         fn close_session(s: ptr<sess>, b: ptr<buf>) {{
             print(s->bytes);
             free(b);
             free(s);
         }}
         fn main() {{
             var i: int = 0;
             while (i < {sessions}) {{
                 var s: ptr<sess> = open_session(i);
                 var b: ptr<buf> = malloc(buf);
                 b->cap = 512;
                 var t: int = 0;
                 while (t < 4) {{
                     xfer(s, b, i + t);
                     t = t + 1;
                 }}
                 close_session(s, b);
                 i = i + 1;
             }}
         }}"
    )
}

/// Injected-UAF corpus: `(name, source)` pairs whose detection every
/// detecting backend — and every engine — must reproduce identically.
pub fn injected_uafs() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "uaf-straight",
            "struct s { v: int }
             fn main() { var p: ptr<s> = malloc(s); p->v = 1; free(p); print(p->v); }",
        ),
        (
            "double-free",
            "struct s { v: int }
             fn main() { var p: ptr<s> = malloc(s); free(p); free(p); }",
        ),
        (
            "uaf-branch",
            "struct s { v: int }
             fn main() {
                 var p: ptr<s> = malloc(s);
                 var c: int = 1;
                 if (c < 2) { free(p); }
                 print(p->v);
             }",
        ),
        (
            "uaf-loop",
            "struct s { v: int }
             fn main() {
                 var p: ptr<s> = malloc(s);
                 free(p);
                 var i: int = 0;
                 while (i < 2) { print(p->v); i = i + 1; }
             }",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn corpus_programs_parse() {
        for src in [
            fingerd(3),
            ftpd(3),
            ghttpd(3),
            ghttpd_keepalive(2, 3),
            figure1_fixed(),
            ftpd_helper(3),
        ] {
            parse(&src).expect("corpus program parses");
        }
        for (name, src) in injected_uafs() {
            parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn figure1_fixed_is_fully_safe_under_inter() {
        let prog = parse(&figure1_fixed()).unwrap();
        let a = crate::analysis::analyze(&prog);
        let r = crate::dataflow::lint(&prog, &a);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.sites_unknown(), 0, "reasons: {:?}", r.reasons);
        assert_eq!(r.elidable_classes.len(), a.classes.len());
        // The intraprocedural mode cannot see through g/free_all_but_head.
        let ri = crate::dataflow::lint_intra(&prog, &a);
        assert!(ri.sites_unknown() > 0);
    }

    #[test]
    fn ftpd_helper_safe_inter_unknown_intra() {
        let prog = parse(&ftpd_helper(3)).unwrap();
        let a = crate::analysis::analyze(&prog);
        let r = crate::dataflow::lint(&prog, &a);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.sites_unknown(), 0, "reasons: {:?}", r.reasons);
        assert_eq!(r.sites_safe(), 2);
        let ri = crate::dataflow::lint_intra(&prog, &a);
        assert_eq!(ri.sites_unknown(), 2, "reasons: {:?}", ri.reasons);
    }
}
