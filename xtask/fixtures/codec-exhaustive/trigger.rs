//! Must trip `codec-exhaustive`: the enum gains a variant (`Bool`) that
//! the codec section below never names. The fixture test points both the
//! def and match halves of the rule at this file.
//! NOT compiled — read as text by xtask's fixture tests.

pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Date(i32),
    Bool(bool),
}

pub fn encode(v: &Value) -> u8 {
    match v {
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Date(_) => 4,
        _ => 0,
    }
}
