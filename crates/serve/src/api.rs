//! Typed request/response bodies of the serve protocol.
//!
//! Every type converts to and from the [`Json`] value tree; the encode →
//! decode round trip is **bit-exact** for every field (u64 seeds included —
//! see the integer/float split in [`crate::json`]), which is what lets the
//! determinism suite compare a served yield estimate against an in-process
//! one without any tolerance.
//!
//! Technology nodes, estimator methods and NoC designs travel as their
//! stable string spellings (`"65nm"`, `"sobol-scrambled"`, `"dvopd"`);
//! they are validated when the request is *executed*, not when it is
//! parsed, so a request body survives the round trip verbatim even if its
//! content is semantically wrong (the execution layer then answers 400).

use crate::json::{obj, parse, Json};

/// `POST /v1/eval` — nominal timing of one buffered line. When `count` /
/// `wn_um` are omitted the server uses its cached delay-optimal plan for
/// the length (the same plan `pi yield` derives).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Technology node spelling (`"65nm"`, `"n45"`, `"90"`, …).
    pub tech: String,
    /// Line length, millimeters.
    pub length_mm: f64,
    /// Repeater count override.
    pub count: Option<u64>,
    /// Repeater nMOS width override, micrometers.
    pub wn_um: Option<f64>,
    /// Process-corner spelling (`"tt"`, `"ss"`, `"ff"`; omitted = typical).
    pub corner: Option<String>,
}

/// Response to [`EvalRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResponse {
    /// Line delay, picoseconds.
    pub delay_ps: f64,
    /// Output slew, picoseconds.
    pub slew_ps: f64,
    /// Repeater count of the evaluated plan.
    pub count: u64,
    /// Repeater nMOS width of the evaluated plan, micrometers.
    pub wn_um: f64,
}

/// `POST /v1/yield` — timing yield of a line against a deadline, through a
/// configurable estimator. Field semantics match the `pi yield` CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldRequest {
    /// Technology node spelling.
    pub tech: String,
    /// Line length, millimeters.
    pub length_mm: f64,
    /// Timing deadline, picoseconds.
    pub deadline_ps: f64,
    /// Estimator name (`"naive"`, `"sobol-scrambled"`, …).
    pub estimator: String,
    /// Base RNG seed (full u64 range survives the JSON round trip).
    pub seed: u64,
    /// Confidence-interval half-width target, percent yield.
    pub ci_pct: f64,
    /// Opt into the analytic control variate.
    pub cv: bool,
    /// Regional within-die correlation coefficient.
    pub rho: Option<f64>,
    /// Number of equal correlation regions along the line (with `rho`).
    pub regions: Option<u64>,
    /// Process-corner spelling (`"tt"`, `"ss"`, `"ff"`; omitted = typical).
    pub corner: Option<String>,
}

/// Response to [`YieldRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct YieldResponse {
    /// Estimated timing yield in `[0, 1]`.
    pub yield_fraction: f64,
    /// CI half-width at 95 %.
    pub half_width: f64,
    /// Line evaluations consumed.
    pub evals: u64,
    /// Estimator that produced the answer (after any fallback).
    pub method: String,
    /// Surrogate disagreement rate (0 when no surrogate ran).
    pub surrogate_disagreement: f64,
}

/// `POST /v1/size` — yield-driven sizing: smallest plan on the greedy
/// upsizing ladder whose yield at the deadline clears `target_yield`.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRequest {
    /// Technology node spelling.
    pub tech: String,
    /// Line length, millimeters.
    pub length_mm: f64,
    /// Timing deadline, picoseconds.
    pub deadline_ps: f64,
    /// Yield target in `(0, 1]`.
    pub target_yield: f64,
    /// Estimator name.
    pub estimator: String,
    /// Base RNG seed.
    pub seed: u64,
    /// CI half-width target, percent yield.
    pub ci_pct: f64,
    /// Use the GP joint-sizing engine (posynomial propose, estimator
    /// verify, ladder fallback) instead of the greedy ladder alone.
    pub gp: bool,
    /// Process-corner spelling (`"tt"`, `"ss"`, `"ff"`; omitted = typical).
    pub corner: Option<String>,
}

/// Response to [`SizeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SizeResponse {
    /// Selected repeater count.
    pub count: u64,
    /// Selected repeater width, micrometers.
    pub wn_um: f64,
    /// Point-estimate yield of the selected plan.
    pub achieved_yield: f64,
    /// Upsizing steps taken from the starting plan.
    pub steps: u64,
}

/// `POST /v1/net-yield` — whole-network parametric yield of a synthesized
/// NoC testcase at a clock.
#[derive(Debug, Clone, PartialEq)]
pub struct NetYieldRequest {
    /// Built-in testcase name (`"dvopd"` or `"vproc"`).
    pub design: String,
    /// Technology node spelling.
    pub tech: String,
    /// Clock frequency, gigahertz.
    pub clock_ghz: f64,
    /// Estimator name.
    pub estimator: String,
    /// Base RNG seed.
    pub seed: u64,
    /// CI half-width target, percent yield.
    pub ci_pct: f64,
}

/// Response to [`NetYieldRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetYieldResponse {
    /// Whole-network yield in `[0, 1]`.
    pub yield_fraction: f64,
    /// CI half-width at 95 %.
    pub half_width: f64,
    /// Problem evaluations consumed.
    pub evals: u64,
    /// Channel count of the synthesized network.
    pub channels: u64,
    /// Index of the yield-limiting channel.
    pub limiting_channel: u64,
    /// Marginal yield of that channel.
    pub limiting_yield: f64,
}

/// One request of the serve protocol, tagged by endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// `POST /v1/eval`.
    Eval(EvalRequest),
    /// `POST /v1/yield`.
    Yield(YieldRequest),
    /// `POST /v1/size`.
    Size(SizeRequest),
    /// `POST /v1/net-yield`.
    NetYield(NetYieldRequest),
}

/// One response of the serve protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiResponse {
    /// Answer to an eval request.
    Eval(EvalResponse),
    /// Answer to a yield request.
    Yield(YieldResponse),
    /// Answer to a size request.
    Size(SizeResponse),
    /// Answer to a net-yield request.
    NetYield(NetYieldResponse),
    /// Request-level failure, carried with the HTTP status to answer.
    Error {
        /// HTTP status code (4xx/5xx).
        status: u16,
        /// Human-readable cause.
        message: String,
        /// `Retry-After` header value, seconds (shed/overload 503s only).
        retry_after: Option<u64>,
    },
}

/// Rejects a request body carrying a member outside the space-separated
/// `known` field names, naming it — a misspelled optional field
/// (`"gp_": true`) must not silently fall back to its default. Non-object
/// bodies pass through to the field decoders, which report the missing
/// fields.
fn reject_unknown(v: &Json, known: &str) -> Result<(), String> {
    let Json::Obj(members) = v else {
        return Ok(());
    };
    match members
        .iter()
        .find(|(k, _)| !known.split(' ').any(|f| f == k))
    {
        Some((k, _)) => Err(format!(
            "unknown field `{k}` (expected one of: {})",
            known.replace(' ', ", ")
        )),
        None => Ok(()),
    }
}

fn need_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn need_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-numeric field `{key}`")),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer field `{key}`")),
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("non-string field `{key}`")),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| format!("non-boolean field `{key}`")),
    }
}

fn opt_member(key: &str, v: Option<f64>) -> Option<(String, Json)> {
    v.map(|x| (key.to_owned(), Json::Num(x)))
}

fn opt_str_member(key: &str, v: &Option<String>) -> Option<(String, Json)> {
    v.as_ref().map(|s| (key.to_owned(), Json::Str(s.clone())))
}

impl EvalRequest {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("tech".to_owned(), Json::Str(self.tech.clone())),
            ("length_mm".to_owned(), Json::Num(self.length_mm)),
        ];
        if let Some(c) = self.count {
            members.push(("count".to_owned(), Json::Int(i128::from(c))));
        }
        members.extend(opt_member("wn_um", self.wn_um));
        members.extend(opt_str_member("corner", &self.corner));
        Json::Obj(members)
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first unknown, missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        reject_unknown(v, "tech length_mm count wn_um corner")?;
        Ok(EvalRequest {
            tech: need_str(v, "tech")?,
            length_mm: need_f64(v, "length_mm")?,
            count: opt_u64(v, "count")?,
            wn_um: opt_f64(v, "wn_um")?,
            corner: opt_str(v, "corner")?,
        })
    }
}

impl EvalResponse {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("delay_ps", Json::Num(self.delay_ps)),
            ("slew_ps", Json::Num(self.slew_ps)),
            ("count", Json::Int(i128::from(self.count))),
            ("wn_um", Json::Num(self.wn_um)),
        ])
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(EvalResponse {
            delay_ps: need_f64(v, "delay_ps")?,
            slew_ps: need_f64(v, "slew_ps")?,
            count: need_u64(v, "count")?,
            wn_um: need_f64(v, "wn_um")?,
        })
    }
}

impl YieldRequest {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("tech".to_owned(), Json::Str(self.tech.clone())),
            ("length_mm".to_owned(), Json::Num(self.length_mm)),
            ("deadline_ps".to_owned(), Json::Num(self.deadline_ps)),
            ("estimator".to_owned(), Json::Str(self.estimator.clone())),
            ("seed".to_owned(), Json::Int(i128::from(self.seed))),
            ("ci_pct".to_owned(), Json::Num(self.ci_pct)),
            ("cv".to_owned(), Json::Bool(self.cv)),
        ];
        members.extend(opt_member("rho", self.rho));
        if let Some(r) = self.regions {
            members.push(("regions".to_owned(), Json::Int(i128::from(r))));
        }
        members.extend(opt_str_member("corner", &self.corner));
        Json::Obj(members)
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first unknown, missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        reject_unknown(
            v,
            "tech length_mm deadline_ps estimator seed ci_pct cv rho regions corner",
        )?;
        Ok(YieldRequest {
            tech: need_str(v, "tech")?,
            length_mm: need_f64(v, "length_mm")?,
            deadline_ps: need_f64(v, "deadline_ps")?,
            estimator: need_str(v, "estimator")?,
            seed: need_u64(v, "seed")?,
            ci_pct: need_f64(v, "ci_pct")?,
            cv: opt_bool(v, "cv")?,
            rho: opt_f64(v, "rho")?,
            regions: opt_u64(v, "regions")?,
            corner: opt_str(v, "corner")?,
        })
    }
}

impl YieldResponse {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("yield_fraction", Json::Num(self.yield_fraction)),
            ("half_width", Json::Num(self.half_width)),
            ("evals", Json::Int(i128::from(self.evals))),
            ("method", Json::Str(self.method.clone())),
            (
                "surrogate_disagreement",
                Json::Num(self.surrogate_disagreement),
            ),
        ])
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(YieldResponse {
            yield_fraction: need_f64(v, "yield_fraction")?,
            half_width: need_f64(v, "half_width")?,
            evals: need_u64(v, "evals")?,
            method: need_str(v, "method")?,
            surrogate_disagreement: need_f64(v, "surrogate_disagreement")?,
        })
    }
}

impl SizeRequest {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("tech".to_owned(), Json::Str(self.tech.clone())),
            ("length_mm".to_owned(), Json::Num(self.length_mm)),
            ("deadline_ps".to_owned(), Json::Num(self.deadline_ps)),
            ("target_yield".to_owned(), Json::Num(self.target_yield)),
            ("estimator".to_owned(), Json::Str(self.estimator.clone())),
            ("seed".to_owned(), Json::Int(i128::from(self.seed))),
            ("ci_pct".to_owned(), Json::Num(self.ci_pct)),
            ("gp".to_owned(), Json::Bool(self.gp)),
        ];
        members.extend(opt_str_member("corner", &self.corner));
        Json::Obj(members)
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first unknown, missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        reject_unknown(
            v,
            "tech length_mm deadline_ps target_yield estimator seed ci_pct gp corner",
        )?;
        Ok(SizeRequest {
            tech: need_str(v, "tech")?,
            length_mm: need_f64(v, "length_mm")?,
            deadline_ps: need_f64(v, "deadline_ps")?,
            target_yield: need_f64(v, "target_yield")?,
            estimator: need_str(v, "estimator")?,
            seed: need_u64(v, "seed")?,
            ci_pct: need_f64(v, "ci_pct")?,
            gp: opt_bool(v, "gp")?,
            corner: opt_str(v, "corner")?,
        })
    }
}

impl SizeResponse {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("count", Json::Int(i128::from(self.count))),
            ("wn_um", Json::Num(self.wn_um)),
            ("achieved_yield", Json::Num(self.achieved_yield)),
            ("steps", Json::Int(i128::from(self.steps))),
        ])
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(SizeResponse {
            count: need_u64(v, "count")?,
            wn_um: need_f64(v, "wn_um")?,
            achieved_yield: need_f64(v, "achieved_yield")?,
            steps: need_u64(v, "steps")?,
        })
    }
}

impl NetYieldRequest {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("design", Json::Str(self.design.clone())),
            ("tech", Json::Str(self.tech.clone())),
            ("clock_ghz", Json::Num(self.clock_ghz)),
            ("estimator", Json::Str(self.estimator.clone())),
            ("seed", Json::Int(i128::from(self.seed))),
            ("ci_pct", Json::Num(self.ci_pct)),
        ])
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first unknown, missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        reject_unknown(v, "design tech clock_ghz estimator seed ci_pct")?;
        Ok(NetYieldRequest {
            design: need_str(v, "design")?,
            tech: need_str(v, "tech")?,
            clock_ghz: need_f64(v, "clock_ghz")?,
            estimator: need_str(v, "estimator")?,
            seed: need_u64(v, "seed")?,
            ci_pct: need_f64(v, "ci_pct")?,
        })
    }
}

impl NetYieldResponse {
    /// Encodes to the wire JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("yield_fraction", Json::Num(self.yield_fraction)),
            ("half_width", Json::Num(self.half_width)),
            ("evals", Json::Int(i128::from(self.evals))),
            ("channels", Json::Int(i128::from(self.channels))),
            (
                "limiting_channel",
                Json::Int(i128::from(self.limiting_channel)),
            ),
            ("limiting_yield", Json::Num(self.limiting_yield)),
        ])
    }

    /// Decodes from the wire JSON value.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(NetYieldResponse {
            yield_fraction: need_f64(v, "yield_fraction")?,
            half_width: need_f64(v, "half_width")?,
            evals: need_u64(v, "evals")?,
            channels: need_u64(v, "channels")?,
            limiting_channel: need_u64(v, "limiting_channel")?,
            limiting_yield: need_f64(v, "limiting_yield")?,
        })
    }
}

impl ApiRequest {
    /// The endpoint path this request is posted to.
    #[must_use]
    pub fn path(&self) -> &'static str {
        match self {
            ApiRequest::Eval(_) => "/v1/eval",
            ApiRequest::Yield(_) => "/v1/yield",
            ApiRequest::Size(_) => "/v1/size",
            ApiRequest::NetYield(_) => "/v1/net-yield",
        }
    }

    /// Encodes the request body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            ApiRequest::Eval(r) => r.to_json(),
            ApiRequest::Yield(r) => r.to_json(),
            ApiRequest::Size(r) => r.to_json(),
            ApiRequest::NetYield(r) => r.to_json(),
        }
    }

    /// Decodes a request from its endpoint path and raw body text.
    ///
    /// # Errors
    ///
    /// `Err(None)` for an unknown path (→ 404); `Err(Some(msg))` for a
    /// body that does not parse or type-check (→ 400).
    pub fn from_path_body(path: &str, body: &str) -> Result<Self, Option<String>> {
        let decode = |f: fn(&Json) -> Result<ApiRequest, String>| {
            let v = parse(body).map_err(|e| Some(format!("bad JSON body: {e}")))?;
            f(&v).map_err(Some)
        };
        match path {
            "/v1/eval" => decode(|v| EvalRequest::from_json(v).map(ApiRequest::Eval)),
            "/v1/yield" => decode(|v| YieldRequest::from_json(v).map(ApiRequest::Yield)),
            "/v1/size" => decode(|v| SizeRequest::from_json(v).map(ApiRequest::Size)),
            "/v1/net-yield" => decode(|v| NetYieldRequest::from_json(v).map(ApiRequest::NetYield)),
            _ => Err(None),
        }
    }
}

impl ApiResponse {
    /// HTTP status of this response.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ApiResponse::Error { status, .. } => *status,
            _ => 200,
        }
    }

    /// Encodes the response body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            ApiResponse::Eval(r) => r.to_json(),
            ApiResponse::Yield(r) => r.to_json(),
            ApiResponse::Size(r) => r.to_json(),
            ApiResponse::NetYield(r) => r.to_json(),
            ApiResponse::Error {
                status,
                message,
                retry_after,
            } => {
                let mut members = vec![
                    ("error".to_owned(), Json::Str(message.clone())),
                    ("status".to_owned(), Json::Int(i128::from(*status))),
                ];
                if let Some(s) = retry_after {
                    members.push(("retry_after_s".to_owned(), Json::Int(i128::from(*s))));
                }
                Json::Obj(members)
            }
        }
    }

    /// Shorthand for a request-level failure.
    #[must_use]
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        ApiResponse::Error {
            status,
            message: message.into(),
            retry_after: None,
        }
    }

    /// Shorthand for an overload shed: `503` carrying a `Retry-After`.
    #[must_use]
    pub fn overloaded(message: impl Into<String>, retry_after_s: u64) -> Self {
        ApiResponse::Error {
            status: 503,
            message: message.into(),
            retry_after: Some(retry_after_s),
        }
    }

    /// `Retry-After` seconds to attach to the HTTP response, if any.
    #[must_use]
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ApiResponse::Error { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_rt::Rng;

    fn arb_f64(rng: &mut Rng) -> f64 {
        // Realistic magnitudes plus awkward exact values.
        match rng.below(4) {
            0 => rng.random_range(0.0..1.0),
            1 => rng.random_range(1.0..1e4),
            2 => (rng.below(1000) as f64) / 8.0, // exact dyadic
            _ => f64::from_bits(0x3ff0_0000_0000_0000 | rng.next_u64() >> 12),
        }
    }

    fn arb_corner(rng: &mut Rng) -> Option<String> {
        (rng.below(2) == 0).then(|| ["tt", "ss", "ff", "typical"][rng.below(4)].to_owned())
    }

    fn arb_request(rng: &mut Rng) -> ApiRequest {
        let tech = ["65nm", "n45", "90", "130nm"][rng.below(4)].to_owned();
        let est = ["naive", "sobol-scrambled", "importance", "analytic"][rng.below(4)].to_owned();
        match rng.below(4) {
            0 => ApiRequest::Eval(EvalRequest {
                tech,
                length_mm: arb_f64(rng),
                count: (rng.below(2) == 0).then(|| rng.next_u64() % 64),
                wn_um: (rng.below(2) == 0).then(|| arb_f64(rng)),
                corner: arb_corner(rng),
            }),
            1 => ApiRequest::Yield(YieldRequest {
                tech,
                length_mm: arb_f64(rng),
                deadline_ps: arb_f64(rng),
                estimator: est,
                seed: rng.next_u64(),
                ci_pct: arb_f64(rng),
                cv: rng.below(2) == 0,
                rho: (rng.below(2) == 0).then(|| rng.random_unit()),
                regions: (rng.below(2) == 0).then(|| 1 + rng.next_u64() % 16),
                corner: arb_corner(rng),
            }),
            2 => ApiRequest::Size(SizeRequest {
                tech,
                length_mm: arb_f64(rng),
                deadline_ps: arb_f64(rng),
                target_yield: rng.random_unit(),
                estimator: est,
                seed: rng.next_u64(),
                ci_pct: arb_f64(rng),
                gp: rng.below(2) == 0,
                corner: arb_corner(rng),
            }),
            _ => ApiRequest::NetYield(NetYieldRequest {
                design: ["dvopd", "vproc"][rng.below(2)].to_owned(),
                tech,
                clock_ghz: arb_f64(rng),
                estimator: est,
                seed: rng.next_u64(),
                ci_pct: arb_f64(rng),
            }),
        }
    }

    fn arb_response(rng: &mut Rng) -> ApiResponse {
        match rng.below(4) {
            0 => ApiResponse::Eval(EvalResponse {
                delay_ps: arb_f64(rng),
                slew_ps: arb_f64(rng),
                count: rng.next_u64() % 64,
                wn_um: arb_f64(rng),
            }),
            1 => ApiResponse::Yield(YieldResponse {
                yield_fraction: rng.random_unit(),
                half_width: arb_f64(rng),
                evals: rng.next_u64() % (1 << 24),
                method: "sobol-scrambled".to_owned(),
                surrogate_disagreement: rng.random_unit(),
            }),
            2 => ApiResponse::Size(SizeResponse {
                count: rng.next_u64() % 64,
                wn_um: arb_f64(rng),
                achieved_yield: rng.random_unit(),
                steps: rng.next_u64() % 32,
            }),
            _ => ApiResponse::NetYield(NetYieldResponse {
                yield_fraction: rng.random_unit(),
                half_width: arb_f64(rng),
                evals: rng.next_u64() % (1 << 24),
                channels: 1 + rng.next_u64() % 128,
                limiting_channel: rng.next_u64() % 128,
                limiting_yield: rng.random_unit(),
            }),
        }
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        let mut rng = Rng::seed_from_u64(41);
        for _ in 0..500 {
            let req = arb_request(&mut rng);
            let text = req.to_json().render();
            let back = ApiRequest::from_path_body(req.path(), &text).expect("round trip parses");
            assert_eq!(back, req, "{text}");
            // PartialEq on f64 treats -0.0 == 0.0; re-render to pin bits.
            assert_eq!(back.to_json().render(), text);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..500 {
            let resp = arb_response(&mut rng);
            let text = resp.to_json().render();
            let v = parse(&text).unwrap();
            let back = match &resp {
                ApiResponse::Eval(_) => ApiResponse::Eval(EvalResponse::from_json(&v).unwrap()),
                ApiResponse::Yield(_) => ApiResponse::Yield(YieldResponse::from_json(&v).unwrap()),
                ApiResponse::Size(_) => ApiResponse::Size(SizeResponse::from_json(&v).unwrap()),
                ApiResponse::NetYield(_) => {
                    ApiResponse::NetYield(NetYieldResponse::from_json(&v).unwrap())
                }
                ApiResponse::Error { .. } => unreachable!(),
            };
            assert_eq!(back, resp, "{text}");
            assert_eq!(back.to_json().render(), text);
        }
    }

    #[test]
    fn full_seed_range_survives_the_wire() {
        let req = YieldRequest {
            tech: "65nm".to_owned(),
            length_mm: 5.0,
            deadline_ps: 600.0,
            estimator: "naive".to_owned(),
            seed: u64::MAX - 3,
            ci_pct: 0.5,
            cv: false,
            rho: None,
            regions: None,
            corner: None,
        };
        let v = parse(&req.to_json().render()).unwrap();
        assert_eq!(YieldRequest::from_json(&v).unwrap().seed, u64::MAX - 3);
    }

    #[test]
    fn overload_errors_carry_retry_after() {
        let shed = ApiResponse::overloaded("queue under pressure", 2);
        assert_eq!(shed.status(), 503);
        assert_eq!(shed.retry_after(), Some(2));
        let text = shed.to_json().render();
        assert!(text.contains("\"retry_after_s\":2"), "{text}");
        // Plain errors stay bare: no header, no body field.
        let plain = ApiResponse::error(400, "bad");
        assert_eq!(plain.retry_after(), None);
        assert!(!plain.to_json().render().contains("retry_after_s"));
    }

    #[test]
    fn unknown_fields_name_the_field() {
        // A misspelled optional field must not silently run the default.
        let body = r#"{"tech":"65nm","length_mm":5,"deadline_ps":650,"target_yield":0.9,
            "estimator":"naive","seed":1,"ci_pct":2,"gp_":true}"#;
        let err = ApiRequest::from_path_body("/v1/size", body)
            .unwrap_err()
            .expect("a 400, not a 404");
        assert!(err.contains("unknown field `gp_`"), "{err}");
        assert!(
            err.contains("target_yield"),
            "lists the accepted fields: {err}"
        );
        for (path, body) in [
            ("/v1/eval", r#"{"tech":"65nm","length_mm":5,"wn":3}"#),
            (
                "/v1/yield",
                r#"{"tech":"65nm","length_mm":5,"deadline_ps":600,"estimator":"naive","seed":1,"ci_pct":2,"region":3}"#,
            ),
            (
                "/v1/net-yield",
                r#"{"design":"dvopd","tech":"65nm","clock_ghz":2,"estimator":"naive","seed":1,"ci_pct":2,"rho":0.5}"#,
            ),
        ] {
            let err = ApiRequest::from_path_body(path, body).unwrap_err().unwrap();
            assert!(err.contains("unknown field"), "{path}: {err}");
        }
        // Every body the synthetic traffic generator (and so pi-load)
        // emits still decodes.
        let traffic = crate::TrafficGen::with_mix(7, "65nm", 30, 30);
        for i in 0..200 {
            let req = traffic.request(i);
            let text = req.to_json().render();
            assert_eq!(ApiRequest::from_path_body(req.path(), &text).unwrap(), req);
        }
    }

    #[test]
    fn missing_fields_name_the_field() {
        let err = YieldRequest::from_json(&parse(r#"{"tech":"65nm"}"#).unwrap()).unwrap_err();
        assert!(err.contains("length_mm"), "{err}");
        let err = ApiRequest::from_path_body("/v1/eval", "not json").unwrap_err();
        assert!(err.unwrap().contains("bad JSON body"));
        assert!(ApiRequest::from_path_body("/v1/nope", "{}")
            .unwrap_err()
            .is_none());
    }
}
