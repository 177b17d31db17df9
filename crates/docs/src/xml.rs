//! A small XML subset: elements, attributes, text, comments.
//!
//! The paper's motivating workload is selective dissemination of XML
//! documents (EHR.xml in Example 4); this module provides enough XML to
//! parse, segment, redact and reassemble such documents. Not supported (and
//! rejected with errors rather than mis-parsed): DTDs, CDATA, processing
//! instructions other than the leading `<?xml …?>` declaration, and
//! namespaces beyond plain-prefix tag names.

/// Parse errors with byte positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl core::fmt::Display for XmlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "XML error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for XmlError {}

/// An XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

/// An XML node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Text content (whitespace-trimmed; empty text is dropped).
    Text(String),
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: adds an attribute.
    pub fn attr(mut self, key: &str, value: &str) -> Self {
        self.attributes.push((key.to_string(), value.to_string()));
        self
    }

    /// Builder: appends a child element.
    pub fn child(mut self, el: Element) -> Self {
        self.children.push(Node::Element(el));
        self
    }

    /// Builder: appends text content.
    pub fn text(mut self, t: &str) -> Self {
        self.children.push(Node::Text(t.to_string()));
        self
    }

    /// Attribute lookup.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Depth-first search for the first descendant element (or self) with
    /// the given tag name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        if self.name == name {
            return Some(self);
        }
        self.child_elements().find_map(|c| c.find(name))
    }

    /// Concatenated text content of this element's direct text children.
    pub fn direct_text(&self) -> String {
        self.children
            .iter()
            .filter_map(|n| match n {
                Node::Text(t) => Some(t.as_str()),
                Node::Element(_) => None,
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Serializes to a compact XML string.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out, 0, false);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_xml_pretty(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out, 0, true);
        out
    }

    fn write_xml(&self, out: &mut String, depth: usize, pretty: bool) {
        let pad = if pretty {
            "  ".repeat(depth)
        } else {
            String::new()
        };
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            if pretty {
                out.push('\n');
            }
            return;
        }
        out.push('>');
        let only_text = self.children.iter().all(|n| matches!(n, Node::Text(_)));
        if pretty && !only_text {
            out.push('\n');
        }
        for child in &self.children {
            match child {
                Node::Element(e) => e.write_xml(out, depth + 1, pretty),
                Node::Text(t) => {
                    if pretty && !only_text {
                        out.push_str(&"  ".repeat(depth + 1));
                    }
                    out.push_str(&escape(t));
                    if pretty && !only_text {
                        out.push('\n');
                    }
                }
            }
        }
        if pretty && !only_text {
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
        if pretty {
            out.push('\n');
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// The five predefined entities.
const ENTITIES: [(&str, char); 5] = [
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
    ("&apos;", '\''),
    ("&amp;", '&'),
];

/// Replaces the predefined entities in one left-to-right pass; any other
/// `&` is kept as it stands.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let (len, c) = ENTITIES
            .iter()
            .find(|(name, _)| rest.starts_with(name))
            .map_or((1, '&'), |&(name, c)| (name.len(), c));
        out.push(c);
        rest = &rest[len..];
    }
    out.push_str(rest);
    out
}

/// Parses a single XML document (one root element, optional leading
/// declaration, comments allowed anywhere).
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog()?;
    let root = p.parse_element()?;
    p.skip_ws_and_comments()?;
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> XmlError {
        XmlError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                let end = find_from(self.bytes, self.pos + 4, "-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            let end = find_from(self.bytes, self.pos, "?>")
                .ok_or_else(|| self.err("unterminated XML declaration"))?;
            self.pos = end + 2;
        }
        self.skip_ws_and_comments()
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_element(&mut self) -> Result<Element, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut el = Element::new(&name);
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("expected '/>'"));
                    }
                    self.pos += 2;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if !matches!(quote, Some(b'"') | Some(b'\'')) {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let q = quote.expect("checked") as char;
                    self.pos += 1;
                    let start = self.pos;
                    let Some(len) = self.input[start..].find(q) else {
                        self.pos = self.bytes.len();
                        return Err(self.err("unterminated attribute value"));
                    };
                    self.pos += len;
                    el.attributes
                        .push((key, unescape(&self.input[start..self.pos])));
                    self.pos += 1;
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
        // Children until the matching close tag.
        loop {
            if self.starts_with("<!--") {
                let end = find_from(self.bytes, self.pos + 4, "-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(&format!(
                        "mismatched close tag: expected </{name}>, found </{close}>"
                    )));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' after close tag"));
                }
                self.pos += 1;
                return Ok(el);
            }
            match self.peek() {
                Some(b'<') => {
                    let child = self.parse_element()?;
                    el.children.push(Node::Element(child));
                }
                Some(_) => {
                    // A text run ends at the next '<' (or the input's end);
                    // both ends sit on ASCII bytes, so the slice is a `str`.
                    let start = self.pos;
                    self.pos = self.input[start..]
                        .find('<')
                        .map_or(self.bytes.len(), |len| start + len);
                    let trimmed = self.input[start..self.pos].trim();
                    if !trimmed.is_empty() {
                        el.children.push(Node::Text(unescape(trimmed)));
                    }
                }
                None => return Err(self.err(&format!("unclosed element <{name}>"))),
            }
        }
    }
}

fn find_from(haystack: &[u8], from: usize, needle: &str) -> Option<usize> {
    let n = needle.as_bytes();
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(n.len())
        .position(|w| w == n)
        .map(|i| i + from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let doc = parse("<root><a>hello</a><b x=\"1\"/></root>").unwrap();
        assert_eq!(doc.name, "root");
        assert_eq!(doc.children.len(), 2);
        assert_eq!(doc.find("a").unwrap().direct_text(), "hello");
        assert_eq!(doc.find("b").unwrap().get_attr("x"), Some("1"));
        assert!(doc.find("c").is_none());
    }

    #[test]
    fn parse_with_prolog_comments_whitespace() {
        let src = r#"<?xml version="1.0"?>
            <!-- header comment -->
            <PatientRecord>
                <!-- inner comment -->
                <ContactInfo>   Jane Doe  </ContactInfo>
            </PatientRecord>"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.name, "PatientRecord");
        assert_eq!(doc.find("ContactInfo").unwrap().direct_text(), "Jane Doe");
    }

    #[test]
    fn roundtrip_compact() {
        let src = "<r a=\"v\"><x>t</x><y/><z>1</z></r>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.to_xml(), src);
        // Pretty output reparses to the same tree.
        let again = parse(&doc.to_xml_pretty()).unwrap();
        assert_eq!(again, doc);
    }

    #[test]
    fn escaping_roundtrip() {
        let doc = Element::new("t").attr("a", "x<>&\"y").text("5 < 6 & 7 > 2");
        let reparsed = parse(&doc.to_xml()).unwrap();
        assert_eq!(reparsed.get_attr("a"), Some("x<>&\"y"));
        assert_eq!(reparsed.direct_text(), "5 < 6 & 7 > 2");
    }

    #[test]
    fn errors_have_positions() {
        assert!(parse("<a><b></a>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b></b>").is_err());
        assert!(parse("<a x=1></a>").is_err());
        assert!(parse("<a><!-- no end </a>").is_err());
        assert!(parse("").is_err());
        let err = parse("<a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn unescape_matches_the_chained_replacements() {
        // The five `replace` calls the one-pass scan replaced, over every
        // concatenation of up to three fragments.
        let chained = |s: &str| {
            s.replace("&lt;", "<")
                .replace("&gt;", ">")
                .replace("&quot;", "\"")
                .replace("&apos;", "'")
                .replace("&amp;", "&")
        };
        let fragments = [
            "", "&", "&amp", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "lt;", "amp;", "&&",
            "&;", "<", "é", "x",
        ];
        for a in fragments {
            for b in fragments {
                for c in fragments {
                    let s = [a, b, c].concat();
                    assert_eq!(unescape(&s), chained(&s), "{s:?}");
                }
            }
        }
    }

    #[test]
    fn error_positions_are_pinned() {
        // Positions and messages of the byte-at-a-time scanner the slice
        // searches replaced.
        for (src, position, message) in [
            ("<a><b></a>", 9, "mismatched close tag"),
            ("<a>", 3, "unclosed element <a>"),
            ("<a></a><b></b>", 7, "trailing content"),
            ("<a x=1></a>", 5, "expected quoted attribute value"),
            ("<a><!-- no end </a>", 3, "unterminated comment"),
            ("", 0, "expected '<'"),
            ("<a></b>", 6, "mismatched close tag"),
            (
                "<a x=\"unterminated></a>",
                23,
                "unterminated attribute value",
            ),
            ("<a>text &amp; more", 18, "unclosed element <a>"),
            ("<a x='v\"'>é t</a", 17, "expected '>' after close tag"),
            ("<a b=\"&lt;\"></a>x", 16, "trailing content"),
            ("<a x=\"1\" y></a>", 10, "expected '=' in attribute"),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!(err.position, position, "{src:?}");
            assert!(err.message.starts_with(message), "{src:?}: {}", err.message);
        }
    }

    #[test]
    fn nested_depth() {
        let mut src = String::new();
        for i in 0..50 {
            src.push_str(&format!("<n{i}>"));
        }
        for i in (0..50).rev() {
            src.push_str(&format!("</n{i}>"));
        }
        let doc = parse(&src).unwrap();
        assert!(doc.find("n49").is_some());
    }

    #[test]
    fn builder_api() {
        let doc = Element::new("PatientRecord")
            .child(Element::new("ContactInfo").text("Alice"))
            .child(Element::new("BillingInfo").attr("currency", "USD"));
        assert_eq!(doc.child_elements().count(), 2);
        assert_eq!(doc.find("ContactInfo").unwrap().direct_text(), "Alice");
    }
}
