use std::fmt;

/// A point in the 2-D Euclidean plane.
///
/// User locations in the SSRQ problem setting are points in Euclidean space;
/// the ranking function uses the (normalized) Euclidean distance between the
/// query user and every candidate (§3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a new point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::distance`]; prefer it for comparisons.
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns `true` when both coordinates are finite numbers.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from(value: (f64, f64)) -> Self {
        Point::new(value.0, value.1)
    }
}

impl From<Point> for (f64, f64) {
    fn from(value: Point) -> Self {
        (value.x, value.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-1.5, 2.0);
        let b = Point::new(4.0, -3.25);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(7.0, -2.0);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(3.0, 2.0);
        assert_eq!(a.min(b), Point::new(1.0, 2.0));
        assert_eq!(a.max(b), Point::new(3.0, 5.0));
    }

    #[test]
    fn conversion_round_trip() {
        let p: Point = (1.0, 2.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
