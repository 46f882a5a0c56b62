//! The plan checker: recomputes every returned plan from the instance the
//! benchmark generated, without any of the program's code — its own JSON
//! reader included.

use crate::gen::Instance;

/// A parsed JSON value (only what responses use).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Reader {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("bad escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(
                                self.s.get(self.i..self.i + 4).ok_or("bad \\u")?,
                            )
                            .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('?'));
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// Relative slack for float comparisons: the server sums in its own order.
const EPS: f64 = 1e-9;

/// The fractional lower bound on any plan's cost: every task needs weight
/// `θ_i = −ln(1 − t_i)`, and bin `l` buys at most `l·w_l` weight for `c_l`.
pub fn lower_bound(instance: &Instance) -> f64 {
    let unit = instance
        .menu()
        .iter()
        .map(|&(l, r, c)| c / (f64::from(l) * -(1.0 - r).ln()))
        .fold(f64::INFINITY, f64::min);
    (0..instance.tasks.len())
        .map(|i| -(1.0 - instance.tasks.threshold(i)).ln())
        .sum::<f64>()
        * unit
}

/// Checks a response's summary members against the instance: `ok`,
/// `feasible`, the task count, and cost against the lower bound. Returns the
/// reported cost.
pub fn check_summary(response: &Value, instance: &Instance) -> Result<f64, String> {
    if response.get("ok") != Some(&Value::Bool(true)) {
        return Err("response is not ok".into());
    }
    if response.get("feasible") != Some(&Value::Bool(true)) {
        return Err("plan is not feasible".into());
    }
    let tasks = response
        .get("tasks")
        .and_then(Value::num)
        .ok_or("no `tasks`")?;
    if tasks != instance.tasks.len() as f64 {
        return Err(format!(
            "`tasks` is {tasks}, expected {}",
            instance.tasks.len()
        ));
    }
    let cost = response
        .get("cost")
        .and_then(Value::num)
        .ok_or("no `cost`")?;
    let bound = lower_bound(instance);
    if cost < bound * (1.0 - EPS) {
        return Err(format!("cost {cost} is below the lower bound {bound}"));
    }
    Ok(cost)
}

/// Recomputes a returned plan: every task reaches its threshold, no bin
/// exceeds its cardinality or repeats a task, and the total is the sum of
/// the posted bins' costs, equal to the summary's `cost`.
pub fn check_plan(response: &Value, instance: &Instance) -> Result<(), String> {
    let cost = check_summary(response, instance)?;
    let plan = response.get("plan").ok_or("no `plan`")?;
    let menu = instance.menu();
    let n = instance.tasks.len();
    let mut miss = vec![1.0f64; n];
    let mut total = 0.0;
    for bin in plan.get("bins").and_then(Value::arr).ok_or("no `bins`")? {
        let l = bin
            .get("cardinality")
            .and_then(Value::num)
            .ok_or("bin without cardinality")?;
        let &(_, r, c) = menu
            .iter()
            .find(|(card, _, _)| f64::from(*card) == l)
            .ok_or_else(|| format!("cardinality {l} is not on the menu"))?;
        let tasks = bin
            .get("tasks")
            .and_then(Value::arr)
            .ok_or("bin without tasks")?;
        if tasks.len() as f64 > l {
            return Err(format!(
                "a bin of cardinality {l} holds {} tasks",
                tasks.len()
            ));
        }
        let mut seen: Vec<usize> = Vec::with_capacity(tasks.len());
        for t in tasks {
            let t = t.num().ok_or("task id is not a number")?;
            if t < 0.0 || t.fract() != 0.0 || t >= n as f64 {
                return Err(format!("task id {t} is out of range 0..{n}"));
            }
            let t = t as usize;
            if seen.contains(&t) {
                return Err(format!("task {t} appears twice in one bin"));
            }
            seen.push(t);
            miss[t] *= 1.0 - r;
        }
        total += c;
    }
    for (i, m) in miss.iter().enumerate() {
        let t = instance.tasks.threshold(i);
        if 1.0 - m < t - EPS {
            return Err(format!(
                "task {i} reaches reliability {}, below its threshold {t}",
                1.0 - m
            ));
        }
    }
    let reported = plan
        .get("total_cost")
        .and_then(Value::num)
        .ok_or("no `total_cost`")?;
    let slack = EPS * total.max(1.0);
    if (reported - total).abs() > slack || (cost - total).abs() > slack {
        return Err(format!(
            "costs disagree: bins sum to {total}, plan says {reported}, summary {cost}"
        ));
    }
    Ok(())
}

/// The raw text of a response's `plan` member (the last member the server
/// writes), for byte-for-byte comparison.
pub fn plan_text(line: &str) -> Option<&str> {
    let start = line.find(r#","plan":{"#)? + r#","plan":"#.len();
    let end = line.rfind('}')?;
    line.get(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Instance, Tasks};

    fn example9() -> Instance {
        Instance {
            algorithm: "opq-based",
            tasks: Tasks::Homogeneous {
                n: 4,
                threshold: 0.95,
            },
            menu: None,
        }
    }

    #[test]
    fn accepts_a_feasible_plan_and_rejects_broken_ones() {
        let good = r#"{"ok":true,"tasks":4,"cost":0.68,"feasible":true,"plan":{"total_cost":0.68,"bins":[{"cardinality":2,"tasks":[0,1]},{"cardinality":2,"tasks":[0,1]},{"cardinality":2,"tasks":[2,3]},{"cardinality":2,"tasks":[2,3]}]}}"#;
        let plan = |s: &str| parse(s).unwrap();
        // 1 - 0.15^2 = 0.9775 >= 0.95; four bins of 0.18 would cost 0.72,
        // so claim the honest total.
        let honest = good.replace("0.68", "0.72");
        check_plan(&plan(&honest), &example9()).unwrap();
        // Costs that disagree with the bins.
        assert!(check_plan(&plan(good), &example9()).is_err());
        // One bin for tasks 2 and 3 leaves them at 0.85.
        let short = honest.replace(r#",{"cardinality":2,"tasks":[2,3]}]"#, "]");
        assert!(check_plan(&plan(&short), &example9()).is_err());
        // Three tasks in a bin of two.
        let crowded = honest.replace("[0,1]}", "[0,1,2]}");
        assert!(check_plan(&plan(&crowded), &example9()).is_err());
    }

    #[test]
    fn lower_bound_is_below_the_optimum_of_example_9() {
        // The optimum of Example 9 is 0.66.
        let lb = lower_bound(&example9());
        assert!(lb > 0.0 && lb <= 0.66, "{lb}");
    }

    #[test]
    fn plan_text_is_the_last_member() {
        let line = r#"{"ok":true,"cost":1,"plan":{"bins":[]}}"#;
        assert_eq!(plan_text(line), Some(r#"{"bins":[]}"#));
    }
}
