//! Parser for the pipeline configuration format of the paper's Listing 1.
//!
//! ```text
//! // An Example of DAG Configuration for a Pipeline
//! pipeline: fitness
//! modules : [
//!     { name: pose_detector_module
//!       include ("./PoseDetectorModule.js")
//!       service: ['pose_detector']
//!       endpoint: ["bind#tcp://*:5861"]
//!       next_module: activity_detector_module }
//!     { name: activity_detector_module
//!       include ("./ActivityDetectorModule.js")
//!       service: ['activity_detector']
//!       endpoint: ["bind#tcp://*:5862"]
//!       next_module: [rep_counter_module, display_module] }
//! ]
//! ```
//!
//! The `include` path is normalised to a registry key by stripping the
//! directory prefix and the `.js` suffix (so `"./PoseDetectorModule.js"`
//! instantiates the module registered as `PoseDetectorModule`).

use crate::error::PipelineError;
use crate::spec::{ModuleSpec, PipelineSpec};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Colon,
    Comma,
}

#[derive(Debug, Clone)]
struct Spanned {
    token: Token,
    line: usize,
}

fn err(line: usize, reason: impl Into<String>) -> PipelineError {
    PipelineError::Config {
        line,
        reason: reason.into(),
    }
}

fn lex(input: &str) -> Result<Vec<Spanned>, PipelineError> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    // Line comment.
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    return Err(err(line, "unexpected '/'"));
                }
            }
            '{' => {
                tokens.push(Spanned {
                    token: Token::LBrace,
                    line,
                });
                chars.next();
            }
            '}' => {
                tokens.push(Spanned {
                    token: Token::RBrace,
                    line,
                });
                chars.next();
            }
            '[' => {
                tokens.push(Spanned {
                    token: Token::LBracket,
                    line,
                });
                chars.next();
            }
            ']' => {
                tokens.push(Spanned {
                    token: Token::RBracket,
                    line,
                });
                chars.next();
            }
            '(' => {
                tokens.push(Spanned {
                    token: Token::LParen,
                    line,
                });
                chars.next();
            }
            ')' => {
                tokens.push(Spanned {
                    token: Token::RParen,
                    line,
                });
                chars.next();
            }
            ':' => {
                tokens.push(Spanned {
                    token: Token::Colon,
                    line,
                });
                chars.next();
            }
            ',' => {
                tokens.push(Spanned {
                    token: Token::Comma,
                    line,
                });
                chars.next();
            }
            '\'' | '"' => {
                let quote = c;
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == quote {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        return Err(err(line, "unterminated string"));
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(err(line, "unterminated string"));
                }
                tokens.push(Spanned {
                    token: Token::Str(s),
                    line,
                });
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' || c == '-' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '.' || c == '-' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Spanned {
                    token: Token::Ident(s),
                    line,
                });
            }
            other => return Err(err(line, format!("unexpected character {other:?}"))),
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn line(&self) -> usize {
        self.peek()
            .map(|t| t.line)
            .or_else(|| self.tokens.last().map(|t| t.line))
            .unwrap_or(1)
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<usize, PipelineError> {
        let line = self.line();
        match self.next() {
            Some(t) if &t.token == expected => Ok(t.line),
            Some(t) => Err(err(t.line, format!("expected {what}, found {:?}", t.token))),
            None => Err(err(line, format!("expected {what}, found end of input"))),
        }
    }

    fn skip_commas(&mut self) {
        while matches!(self.peek().map(|t| &t.token), Some(Token::Comma)) {
            self.pos += 1;
        }
    }

    /// A string literal or bare identifier.
    fn string_or_ident(&mut self, what: &str) -> Result<String, PipelineError> {
        let line = self.line();
        match self.next() {
            Some(Spanned {
                token: Token::Str(s) | Token::Ident(s),
                ..
            }) => Ok(s),
            Some(t) => Err(err(t.line, format!("expected {what}, found {:?}", t.token))),
            None => Err(err(line, format!("expected {what}, found end of input"))),
        }
    }

    /// A value that may be a single string/ident or a bracketed list of
    /// them; always returns a list.
    fn string_list(&mut self, what: &str) -> Result<Vec<String>, PipelineError> {
        if matches!(self.peek().map(|t| &t.token), Some(Token::LBracket)) {
            self.pos += 1;
            let mut out = Vec::new();
            loop {
                self.skip_commas();
                match self.peek().map(|t| &t.token) {
                    Some(Token::RBracket) => {
                        self.pos += 1;
                        break;
                    }
                    None => return Err(err(self.line(), format!("unterminated {what} list"))),
                    _ => out.push(self.string_or_ident(what)?),
                }
            }
            Ok(out)
        } else {
            Ok(vec![self.string_or_ident(what)?])
        }
    }
}

/// Normalises an include path to a module-registry key:
/// `"./PoseDetectorModule.js"` → `"PoseDetectorModule"`.
pub(crate) fn include_key(path: &str) -> String {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".js").unwrap_or(base).to_string()
}

/// Parses a pipeline configuration document.
///
/// # Errors
///
/// Returns [`PipelineError::Config`] with a line number for syntax errors,
/// and [`PipelineError::Validation`] when the parsed spec is invalid.
pub fn parse(input: &str) -> Result<PipelineSpec, PipelineError> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut spec = PipelineSpec::new("pipeline");
    let mut saw_modules = false;

    while let Some(t) = parser.peek() {
        let line = t.line;
        let key = match &t.token {
            Token::Ident(k) => k.clone(),
            other => return Err(err(line, format!("expected a key, found {other:?}"))),
        };
        parser.pos += 1;
        match key.as_str() {
            "pipeline" => {
                parser.expect(&Token::Colon, "':'")?;
                spec.name = parser.string_or_ident("pipeline name")?;
            }
            "modules" => {
                parser.expect(&Token::Colon, "':'")?;
                parser.expect(&Token::LBracket, "'['")?;
                loop {
                    parser.skip_commas();
                    match parser.peek().map(|t| &t.token) {
                        Some(Token::RBracket) => {
                            parser.pos += 1;
                            break;
                        }
                        Some(Token::LBrace) => {
                            let module = parse_module(&mut parser)?;
                            spec.modules.push(module);
                        }
                        Some(other) => {
                            return Err(err(
                                parser.line(),
                                format!("expected a module block, found {other:?}"),
                            ))
                        }
                        None => return Err(err(parser.line(), "unterminated modules list")),
                    }
                }
                saw_modules = true;
            }
            other => {
                return Err(err(line, format!("unknown top-level key {other:?}")));
            }
        }
    }

    if !saw_modules {
        return Err(err(1, "configuration has no modules section"));
    }
    spec.validate()?;
    Ok(spec)
}

fn parse_module(parser: &mut Parser) -> Result<ModuleSpec, PipelineError> {
    parser.expect(&Token::LBrace, "'{'")?;
    let mut name: Option<String> = None;
    let mut include: Option<String> = None;
    let mut services = Vec::new();
    let mut endpoint = None;
    let mut next_modules = Vec::new();

    loop {
        parser.skip_commas();
        let line = parser.line();
        match parser.next() {
            Some(Spanned {
                token: Token::RBrace,
                ..
            }) => break,
            Some(Spanned {
                token: Token::Ident(key),
                line,
            }) => match key.as_str() {
                "name" => {
                    parser.expect(&Token::Colon, "':'")?;
                    name = Some(parser.string_or_ident("module name")?);
                }
                "include" => {
                    // Both `include ("./X.js")` and `include: "./X.js"`.
                    match parser.peek().map(|t| &t.token) {
                        Some(Token::LParen) => {
                            parser.pos += 1;
                            let path = parser.string_or_ident("include path")?;
                            parser.expect(&Token::RParen, "')'")?;
                            include = Some(include_key(&path));
                        }
                        Some(Token::Colon) => {
                            parser.pos += 1;
                            let path = parser.string_or_ident("include path")?;
                            include = Some(include_key(&path));
                        }
                        _ => return Err(err(line, "include needs '(path)' or ': path'")),
                    }
                }
                "service" | "services" => {
                    parser.expect(&Token::Colon, "':'")?;
                    services.extend(parser.string_list("service name")?);
                }
                "endpoint" => {
                    parser.expect(&Token::Colon, "':'")?;
                    let endpoints = parser.string_list("endpoint")?;
                    let first = endpoints
                        .first()
                        .ok_or_else(|| err(line, "endpoint list is empty"))?;
                    let parsed = first
                        .parse()
                        .map_err(|e| err(line, format!("invalid endpoint {first:?}: {e}")))?;
                    endpoint = Some(parsed);
                }
                "next_module" | "next_modules" => {
                    parser.expect(&Token::Colon, "':'")?;
                    next_modules.extend(parser.string_list("module name")?);
                }
                other => return Err(err(line, format!("unknown module key {other:?}"))),
            },
            Some(t) => {
                return Err(err(
                    t.line,
                    format!("expected a module key, found {:?}", t.token),
                ))
            }
            None => return Err(err(line, "unterminated module block")),
        }
    }

    let line = parser.line();
    let name = name.ok_or_else(|| err(line, "module block missing 'name'"))?;
    let include = include.ok_or_else(|| err(line, format!("module {name:?} missing 'include'")))?;
    Ok(ModuleSpec {
        name,
        include,
        services,
        endpoint,
        next_modules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_net::EndpointMode;

    /// The paper's Listing 1, verbatim structure.
    const LISTING_1: &str = r#"
// An Example of DAG Configuration for a Pipeline
pipeline: fitness
modules : [
    { name: video_module
      include ("./VideoStreamingModule.js")
      endpoint: ["bind#tcp://*:5860"]
      next_module: pose_detector_module }
    { name: pose_detector_module
      include ("./PoseDetectorModule.js")
      service: ['pose_detector']
      endpoint: ["bind#tcp://*:5861"]
      next_module: activity_detector_module }
    { name: activity_detector_module
      include ("./ActivityDetectorModule.js")
      service: ['activity_detector']
      endpoint: ["bind#tcp://*:5862"]
      next_module: [rep_counter_module,
                    display_module] }
    { name: rep_counter_module
      include ("./RepCounterModule.js")
      service: ['rep_counter']
      endpoint: ["bind#tcp://*:5863"]
      next_module: display_module }
    { name: display_module
      include ("./DisplayModule.js")
      endpoint: ["bind#tcp://*:5864"] }
]
"#;

    #[test]
    fn parses_listing_1() {
        let spec = parse(LISTING_1).unwrap();
        assert_eq!(spec.name, "fitness");
        assert_eq!(spec.modules.len(), 5);
        let pose = spec.module("pose_detector_module").unwrap();
        assert_eq!(pose.include, "PoseDetectorModule");
        assert_eq!(pose.services, vec!["pose_detector"]);
        assert_eq!(pose.next_modules, vec!["activity_detector_module"]);
        let ep = pose.endpoint.as_ref().unwrap();
        assert_eq!(ep.mode(), EndpointMode::Bind);
        let activity = spec.module("activity_detector_module").unwrap();
        assert_eq!(
            activity.next_modules,
            vec!["rep_counter_module", "display_module"]
        );
        assert_eq!(spec.sinks().len(), 1);
        assert_eq!(spec.sources().len(), 1);
    }

    #[test]
    fn include_key_normalisation() {
        assert_eq!(include_key("./PoseDetectorModule.js"), "PoseDetectorModule");
        assert_eq!(include_key("a/b/C.js"), "C");
        assert_eq!(include_key("Bare"), "Bare");
        assert_eq!(include_key("no_ext"), "no_ext");
    }

    #[test]
    fn minimal_pipeline() {
        let spec = parse(
            "modules: [ { name: a include(\"A.js\") next_module: b } { name: b include(\"B.js\") } ]",
        )
        .unwrap();
        assert_eq!(spec.modules.len(), 2);
        assert_eq!(spec.name, "pipeline"); // default
    }

    #[test]
    fn colon_style_include() {
        let spec = parse("modules: [ { name: a include: \"./X.js\" } ]").unwrap();
        assert_eq!(spec.modules[0].include, "X");
    }

    #[test]
    fn comments_and_commas_are_tolerated() {
        let spec = parse(
            "// header\nmodules: [\n{ name: a, include(\"A.js\"), next_module: [b,] },\n{ name: b include(\"B.js\") },\n]",
        )
        .unwrap();
        assert_eq!(spec.modules.len(), 2);
    }

    #[test]
    fn error_reports_line_numbers() {
        let input = "modules: [\n{ name: a\n  bogus_key: 1 } ]";
        match parse(input) {
            Err(PipelineError::Config { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("bogus_key"));
            }
            other => panic!("expected config error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_name_or_include() {
        assert!(parse("modules: [ { include(\"A.js\") } ]").is_err());
        assert!(parse("modules: [ { name: a } ]").is_err());
    }

    #[test]
    fn rejects_bad_endpoint() {
        let result = parse("modules: [ { name: a include(\"A.js\") endpoint: [\"bogus://x\"] } ]");
        assert!(result.is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(parse("modules: [ { name: 'a } ]").is_err());
    }

    #[test]
    fn rejects_empty_document() {
        assert!(parse("").is_err());
        assert!(parse("// nothing here").is_err());
    }

    #[test]
    fn rejects_unknown_toplevel_key() {
        assert!(parse("wibble: 3").is_err());
    }

    #[test]
    fn propagates_spec_validation() {
        // Valid syntax, but dangling edge.
        let result = parse("modules: [ { name: a include(\"A.js\") next_module: ghost } ]");
        assert!(matches!(result, Err(PipelineError::Validation(_))));
    }

    #[test]
    fn roundtrip_through_builder_equivalence() {
        let parsed = parse(LISTING_1).unwrap();
        // Spot-check the DAG is intact.
        assert_eq!(parsed.topo_order().unwrap()[0], "video_module");
        assert_eq!(parsed.depth(), 5);
    }
}
