//! Must pass `codec-exhaustive`: every variant of the persisted enum is
//! named in the codec section. NOT compiled — read as text by xtask tests.

pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Date(i32),
}

pub fn encode(v: &Value) -> u8 {
    match v {
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Date(_) => 4,
    }
}
